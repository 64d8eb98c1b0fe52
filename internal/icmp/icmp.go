// Package icmp implements the control-message protocol for the simulated
// internetwork: echo request/reply (ping), destination unreachable, and
// time exceeded. Routers and hosts report forwarding errors through it,
// which gives the HydraNet testbed working ping and traceroute semantics
// and gives transports the classic error signals.
package icmp

import (
	"errors"
	"time"

	"hydranet/internal/ipv4"
	"hydranet/internal/sim"
)

// Protocol is the IPv4 protocol number for ICMP.
const Protocol = ipv4.ProtoICMP

// Type is an ICMP message type.
type Type uint8

// Message types.
const (
	TypeEchoReply    Type = 0
	TypeUnreachable  Type = 3
	TypeEchoRequest  Type = 8
	TypeTimeExceeded Type = 11
)

// Unreachable codes.
const (
	CodeNetUnreachable  uint8 = 0
	CodeHostUnreachable uint8 = 1
	CodePortUnreachable uint8 = 3
	CodeFragNeeded      uint8 = 4
)

// HeaderLen is the fixed ICMP header size.
const HeaderLen = 8

// Message is a parsed ICMP message.
type Message struct {
	Type Type
	Code uint8
	// ID and Seq identify echo transactions (echo messages only).
	ID, Seq uint16
	// Payload carries echo data, or the original IP header + 8 bytes for
	// error messages.
	Payload []byte
}

// ErrTruncated reports an undecodable ICMP message.
var ErrTruncated = errors.New("icmp: truncated message")

// Marshal encodes the message with checksum.
func (m *Message) Marshal() []byte {
	b := make([]byte, HeaderLen+len(m.Payload))
	b[0] = byte(m.Type)
	b[1] = m.Code
	b[4] = byte(m.ID >> 8)
	b[5] = byte(m.ID)
	b[6] = byte(m.Seq >> 8)
	b[7] = byte(m.Seq)
	copy(b[HeaderLen:], m.Payload)
	sum := ipv4.Checksum(b)
	b[2] = byte(sum >> 8)
	b[3] = byte(sum)
	return b
}

// Unmarshal decodes and validates a wire-format message.
func Unmarshal(b []byte) (*Message, error) {
	if len(b) < HeaderLen {
		return nil, ErrTruncated
	}
	if ipv4.Checksum(b) != 0 {
		return nil, errors.New("icmp: checksum mismatch")
	}
	return &Message{
		Type:    Type(b[0]),
		Code:    b[1],
		ID:      uint16(b[4])<<8 | uint16(b[5]),
		Seq:     uint16(b[6])<<8 | uint16(b[7]),
		Payload: b[HeaderLen:],
	}, nil
}

// EchoResult reports the outcome of one ping.
type EchoResult struct {
	From ipv4.Addr
	Seq  uint16
	RTT  time.Duration
	// TimedOut is set when no reply arrived within the deadline.
	TimedOut bool
	// Unreachable/TimeExceeded report ICMP errors instead of a reply;
	// From then names the reporting router.
	Unreachable  bool
	TimeExceeded bool
}

// ErrorFunc observes ICMP error messages (unreachable, time exceeded)
// delivered to this host, with the inner header of the offending packet.
type ErrorFunc func(msg *Message, inner *ipv4.Header)

type pendingEcho struct {
	sentAt   time.Duration
	deadline sim.Event
	done     func(EchoResult)
}

type echoKey struct {
	id, seq uint16
}

// Stack is the per-node ICMP layer.
type Stack struct {
	ip      *ipv4.Stack
	sched   *sim.Scheduler
	nextID  uint16
	pending map[echoKey]*pendingEcho
	onError ErrorFunc
}

var _ ipv4.ProtocolHandler = (*Stack)(nil)

// NewStack creates the ICMP layer: it registers for protocol 1 and installs
// itself as the IP stack's error reporter, so TTL expiry and routing
// failures on this node emit Time Exceeded / Unreachable messages.
func NewStack(ip *ipv4.Stack) *Stack { return new(Stack).Init(ip) }

// Init is NewStack for a Stack embedded by value. The table of outstanding
// echoes is made by the first Ping.
func (s *Stack) Init(ip *ipv4.Stack) *Stack {
	s.ip, s.sched = ip, ip.Scheduler()
	ip.RegisterProto(Protocol, s)
	ip.SetErrorReporter(s)
	return s
}

// OnError installs an observer for inbound ICMP errors.
func (s *Stack) OnError(fn ErrorFunc) { s.onError = fn }

// Ping sends one echo request to dst and calls done with the outcome. ttl
// zero means the default; small ttls implement traceroute probing.
func (s *Stack) Ping(dst ipv4.Addr, ttl uint8, timeout time.Duration, done func(EchoResult)) {
	s.nextID++
	id := s.nextID
	const seq = 1
	key := echoKey{id: id, seq: seq}
	p := &pendingEcho{sentAt: s.sched.Now(), done: done}
	p.deadline = s.sched.After(timeout, func() {
		delete(s.pending, key)
		done(EchoResult{Seq: seq, TimedOut: true})
	})
	if s.pending == nil {
		s.pending = make(map[echoKey]*pendingEcho)
	}
	s.pending[key] = p
	msg := Message{Type: TypeEchoRequest, ID: id, Seq: seq, Payload: []byte("hydranet ping")}
	pkt := &ipv4.Packet{
		Header: ipv4.Header{
			TTL: ipv4.DefaultTTL, Proto: Protocol, Dst: dst, ID: s.ip.AllocID(),
		},
		Payload: msg.Marshal(),
	}
	if ttl != 0 {
		pkt.TTL = ttl
	}
	if ifindex := s.ip.Routes().Lookup(dst); ifindex >= 0 {
		pkt.Src = s.ip.Addr(ifindex)
	}
	if err := s.ip.SendPacket(pkt); err != nil {
		p.deadline.Cancel()
		delete(s.pending, key)
		done(EchoResult{Seq: seq, Unreachable: true})
	}
}

// DeliverIP implements ipv4.ProtocolHandler.
func (s *Stack) DeliverIP(pkt *ipv4.Packet) {
	msg, err := Unmarshal(pkt.Payload)
	if err != nil {
		return
	}
	switch msg.Type {
	case TypeEchoRequest:
		reply := Message{Type: TypeEchoReply, ID: msg.ID, Seq: msg.Seq, Payload: msg.Payload}
		// Reply from the address that was pinged (it may be virtual).
		_ = s.ip.Send(Protocol, pkt.Dst, pkt.Src, reply.Marshal()) //nolint:errcheck
	case TypeEchoReply:
		key := echoKey{id: msg.ID, seq: msg.Seq}
		if p := s.pending[key]; p != nil {
			p.deadline.Cancel()
			delete(s.pending, key)
			p.done(EchoResult{From: pkt.Src, Seq: msg.Seq, RTT: s.sched.Now() - p.sentAt})
		}
	case TypeUnreachable, TypeTimeExceeded:
		inner, innerErr := ipv4.Unmarshal(msg.Payload)
		var hdr *ipv4.Header
		if innerErr == nil {
			hdr = &inner.Header
		}
		// An error about one of our outstanding echoes resolves it. The
		// quote holds only the first 8 bytes of the offending ICMP
		// message, so its checksum no longer verifies — parse the header
		// fields directly.
		if hdr != nil && hdr.Proto == Protocol && innerErr == nil &&
			len(inner.Payload) >= HeaderLen && Type(inner.Payload[0]) == TypeEchoRequest {
			id := uint16(inner.Payload[4])<<8 | uint16(inner.Payload[5])
			seq := uint16(inner.Payload[6])<<8 | uint16(inner.Payload[7])
			key := echoKey{id: id, seq: seq}
			if p := s.pending[key]; p != nil {
				p.deadline.Cancel()
				delete(s.pending, key)
				p.done(EchoResult{
					From:         pkt.Src,
					Seq:          seq,
					RTT:          s.sched.Now() - p.sentAt,
					Unreachable:  msg.Type == TypeUnreachable,
					TimeExceeded: msg.Type == TypeTimeExceeded,
				})
			}
		}
		if s.onError != nil {
			s.onError(msg, hdr)
		}
	}
}

// ReportIPError implements ipv4.ErrorReporter: it converts an IP-layer
// failure into the matching ICMP error, quoting the offending packet's header
// plus 8 payload bytes, per RFC 792.
func (s *Stack) ReportIPError(reason ipv4.ErrorReason, offending *ipv4.Packet) {
	// Never generate errors about ICMP errors or non-initial fragments.
	if offending.Proto == Protocol {
		if m, err := Unmarshal(offending.Payload); err == nil &&
			m.Type != TypeEchoRequest && m.Type != TypeEchoReply {
			return
		}
	}
	if offending.FragOff != 0 {
		return
	}
	var typ Type
	var code uint8
	switch reason {
	case ipv4.ErrorTTLExceeded:
		typ = TypeTimeExceeded
	case ipv4.ErrorNoRoute:
		typ, code = TypeUnreachable, CodeHostUnreachable
	case ipv4.ErrorNoListener:
		typ, code = TypeUnreachable, CodePortUnreachable
	case ipv4.ErrorFragNeeded:
		typ, code = TypeUnreachable, CodeFragNeeded
	default:
		return
	}
	quote, err := (&ipv4.Packet{Header: offending.Header, Payload: head(offending.Payload, 8)}).Marshal()
	if err != nil {
		return
	}
	msg := Message{Type: typ, Code: code, Payload: quote}
	_ = s.ip.Send(Protocol, 0, offending.Src, msg.Marshal()) //nolint:errcheck
}

func head(b []byte, n int) []byte {
	if len(b) < n {
		return b
	}
	return b[:n]
}
