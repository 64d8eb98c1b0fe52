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
	"encoding/binary"
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

// Types 7 and 9 are unassigned and rejected on receipt; MsgMirror keeps its
// wire value.
const (
	// MsgMirror replicates an FT table entry to a peer redirector, so
	// clients behind several redirectors reach the same replica set
	// (paper Figure 1). Hosts carries the chain, primary first; an empty
	// list removes the entry. ProbeID carries a per-service version for
	// last-writer-wins ordering.
	MsgMirror MsgType = 8
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

// Marshal encodes the message into a new slice; AppendTo is the form that
// reuses a buffer.
func (m *Message) Marshal() []byte {
	return m.AppendTo(make([]byte, 0, msgLen+1+4*len(m.Hosts)))
}

// AppendTo appends the message's encoding to b and returns the extended
// slice. MIRROR messages append the host list after the fixed header.
func (m *Message) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, msgLen)...)
	f := b[off:]
	f[0] = byte(m.Type)
	binary.BigEndian.PutUint32(f[1:5], uint32(m.Service.Addr))
	binary.BigEndian.PutUint16(f[5:7], m.Service.Port)
	binary.BigEndian.PutUint32(f[7:11], uint32(m.Host))
	f[11] = byte(m.Mode)
	binary.BigEndian.PutUint32(f[12:16], uint32(m.Upstream))
	if m.Gated {
		f[16] = 1
	}
	// Metric and ProbeID overlay the same slot; no message uses both.
	if m.Type.carriesProbeID() {
		binary.BigEndian.PutUint32(f[17:21], m.ProbeID)
	} else {
		binary.BigEndian.PutUint16(f[17:19], m.Metric)
	}
	if m.Type == MsgMirror {
		b = append(b, byte(len(m.Hosts)))
		for _, h := range m.Hosts {
			b = append(b, byte(h>>24), byte(h>>16), byte(h>>8), byte(h))
		}
	}
	return b
}

// UnmarshalMessage decodes a management datagram into a new Message;
// Message.Unmarshal is the form that reuses one.
func UnmarshalMessage(b []byte) (*Message, error) {
	m := new(Message)
	if err := m.Unmarshal(b); err != nil {
		return nil, err
	}
	return m, nil
}

// Unmarshal decodes a management datagram into m, overwriting every field,
// and leaves m untouched on error. A MIRROR's Hosts reuse the array m.Hosts
// already has, so a receiver that decodes every datagram into one scratch
// Message allocates nothing once the array has grown; like every scratch
// struct (DESIGN.md §5, scratch-struct lifetime rule) it is valid only until
// the handler returns.
func (m *Message) Unmarshal(b []byte) error {
	if len(b) < msgLen {
		return ErrBadMessage
	}
	typ := MsgType(b[0])
	if typ != MsgMirror && (typ < MsgRegister || typ > MsgPing) {
		return ErrBadMessage
	}
	hosts := b[msgLen:]
	if typ == MsgMirror {
		if len(hosts) < 1 || len(hosts)-1 != 4*int(hosts[0]) {
			return ErrBadMessage
		}
		hosts = hosts[1:]
	} else if len(hosts) != 0 {
		return ErrBadMessage
	}
	*m = Message{
		Type:     typ,
		Service:  core.ServiceID{Addr: ipv4.Addr(binary.BigEndian.Uint32(b[1:5])), Port: binary.BigEndian.Uint16(b[5:7])},
		Host:     ipv4.Addr(binary.BigEndian.Uint32(b[7:11])),
		Mode:     core.Mode(b[11]),
		Upstream: ipv4.Addr(binary.BigEndian.Uint32(b[12:16])),
		Gated:    b[16] == 1,
		Hosts:    m.Hosts[:0],
	}
	if typ.carriesProbeID() {
		m.ProbeID = binary.BigEndian.Uint32(b[17:21])
	} else {
		m.Metric = binary.BigEndian.Uint16(b[17:19])
	}
	for i := 0; i < len(hosts); i += 4 {
		m.Hosts = append(m.Hosts, ipv4.Addr(binary.BigEndian.Uint32(hosts[i:i+4])))
	}
	return nil
}

// scribble overwrites a scratch message, its Hosts' elements included but
// not their array, as poison mode does when the message's handler returns.
func (m *Message) scribble() {
	for i := range m.Hosts {
		m.Hosts[i] = 0xDBDBDBDB
	}
	*m = Message{
		Type: 0xDB, Service: core.ServiceID{Addr: 0xDBDBDBDB, Port: 0xDBDB}, Host: 0xDBDBDBDB,
		Mode: 0xDB, Upstream: 0xDBDBDBDB, Gated: true, Metric: 0xDBDB, ProbeID: 0xDBDBDBDB,
		Hosts: m.Hosts,
	}
}
