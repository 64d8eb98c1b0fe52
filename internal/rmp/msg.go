// Package rmp implements the HydraNet replica management protocol (paper
// Section 4.4): management daemons on host servers and redirectors that
// register replicas, build and repair the acknowledgment-channel chain, and
// reconfigure the system after failures.
//
// Daemons exchange idempotent operations over plain UDP and state-changing
// operations over a small reliable-UDP layer, mirroring the paper's
// "UDP for idempotent operations and a form of reliable UDP for the message
// exchanges".
package rmp

import (
	"errors"
	"fmt"

	"hydranet/internal/core"
	"hydranet/internal/ipv4"
)

// ManagementPort is the well-known UDP port of the management daemons.
const ManagementPort = 5403

// MsgType enumerates protocol operations.
type MsgType uint8

// Protocol operations.
const (
	// MsgRegister announces a replica binding a replicated port
	// (creation of primary/backup server).
	MsgRegister MsgType = iota + 1
	// MsgLeave announces a replica voluntarily leaving.
	MsgLeave
	// MsgSuspect reports a tripped failure estimator to the redirector.
	MsgSuspect
	// MsgChainSet installs a replica's chain position: role, upstream
	// (predecessor) and whether a successor exists. ProbeID carries the
	// per-service version, so a retransmitted older position never
	// overwrites a newer one.
	MsgChainSet
	// MsgRegisterScale announces a scaling-mode (non-FT) replica.
	MsgRegisterScale
	// MsgPing is the liveness probe used to identify the failed member of
	// a partitioned chain. The reliable layer's acknowledgment serves as
	// the reply.
	MsgPing
)

// Type 7 is unassigned and rejected on receipt; the types after it keep
// their wire values.
const (
	// MsgMirror replicates an FT table entry to a peer redirector, so
	// clients behind several redirectors reach the same replica set
	// (paper Figure 1). Hosts carries the chain, primary first; an empty
	// list removes the entry. ProbeID carries a per-service version for
	// last-writer-wins ordering.
	MsgMirror MsgType = 8
	// MsgHeartbeat announces a replica's liveness for a service. Sent
	// periodically only when lease-based membership is enabled; the
	// redirector expires chain members whose heartbeats stop.
	MsgHeartbeat MsgType = 9
)

func (t MsgType) String() string {
	switch t {
	case MsgRegister:
		return "REGISTER"
	case MsgLeave:
		return "LEAVE"
	case MsgSuspect:
		return "SUSPECT"
	case MsgChainSet:
		return "CHAIN-SET"
	case MsgRegisterScale:
		return "REGISTER-SCALE"
	case MsgPing:
		return "PING"
	case MsgMirror:
		return "MIRROR"
	case MsgHeartbeat:
		return "HEARTBEAT"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// carriesProbeID reports whether the type's 4-byte slot at offset 17 holds
// ProbeID rather than Metric.
func (t MsgType) carriesProbeID() bool {
	return t == MsgPing || t == MsgMirror || t == MsgChainSet
}

// Message is the flat RMP wire message; which fields are meaningful depends
// on Type.
type Message struct {
	Type     MsgType
	Service  core.ServiceID
	Host     ipv4.Addr // subject replica (registrant, leaver, probe target)
	Mode     core.Mode // REGISTER, CHAIN-SET
	Upstream ipv4.Addr // CHAIN-SET: predecessor in the acknowledgment channel
	Gated    bool      // CHAIN-SET: successor exists
	Metric   uint16    // REGISTER-SCALE: routing metric
	ProbeID  uint32    // PING correlation; MIRROR and CHAIN-SET version
	// Hosts is the replica chain carried by MIRROR messages.
	Hosts []ipv4.Addr
}

const msgLen = 21

// ErrBadMessage reports an undecodable management datagram.
var ErrBadMessage = errors.New("rmp: malformed message")

// Marshal encodes the message. MIRROR messages append the host list after
// the fixed header.
func (m *Message) Marshal() []byte {
	b := make([]byte, msgLen, msgLen+1+4*len(m.Hosts))
	b[0] = byte(m.Type)
	putU32(b[1:5], uint32(m.Service.Addr))
	putU16(b[5:7], m.Service.Port)
	putU32(b[7:11], uint32(m.Host))
	b[11] = byte(m.Mode)
	putU32(b[12:16], uint32(m.Upstream))
	if m.Gated {
		b[16] = 1
	}
	// Metric and ProbeID overlay the same slot; no message uses both.
	if m.Type.carriesProbeID() {
		putU32(b[17:21], m.ProbeID)
	} else {
		putU16(b[17:19], m.Metric)
	}
	if m.Type == MsgMirror {
		b = append(b, byte(len(m.Hosts)))
		for _, h := range m.Hosts {
			var quad [4]byte
			putU32(quad[:], uint32(h))
			b = append(b, quad[:]...)
		}
	}
	return b
}

// UnmarshalMessage decodes a management datagram.
func UnmarshalMessage(b []byte) (*Message, error) {
	if len(b) < msgLen {
		return nil, ErrBadMessage
	}
	if MsgType(b[0]) != MsgMirror && len(b) != msgLen {
		return nil, ErrBadMessage
	}
	m := &Message{
		Type:     MsgType(b[0]),
		Service:  core.ServiceID{Addr: ipv4.Addr(getU32(b[1:5])), Port: getU16(b[5:7])},
		Host:     ipv4.Addr(getU32(b[7:11])),
		Mode:     core.Mode(b[11]),
		Upstream: ipv4.Addr(getU32(b[12:16])),
		Gated:    b[16] == 1,
	}
	if m.Type.carriesProbeID() {
		m.ProbeID = getU32(b[17:21])
	} else {
		m.Metric = getU16(b[17:19])
	}
	if m.Type < MsgRegister || m.Type > MsgHeartbeat || (m.Type > MsgPing && m.Type < MsgMirror) {
		return nil, ErrBadMessage
	}
	if m.Type == MsgMirror {
		rest := b[msgLen:]
		if len(rest) < 1 {
			return nil, ErrBadMessage
		}
		count := int(rest[0])
		rest = rest[1:]
		if len(rest) != 4*count {
			return nil, ErrBadMessage
		}
		for i := 0; i < count; i++ {
			m.Hosts = append(m.Hosts, ipv4.Addr(getU32(rest[4*i:4*i+4])))
		}
	}
	return m, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

func putU16(b []byte, v uint16) {
	b[0] = byte(v >> 8)
	b[1] = byte(v)
}

func getU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func getU16(b []byte) uint16 {
	return uint16(b[0])<<8 | uint16(b[1])
}
