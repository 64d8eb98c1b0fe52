// Package udp implements the UDP transport over the simulated IPv4 stack.
//
// HydraNet-FT uses UDP for two things: the kernel-to-kernel acknowledgment
// channel between server replicas, and the replica management protocol
// between daemons and redirectors (paper Sections 4.3–4.4).
package udp

import (
	"errors"
	"fmt"
	"slices"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
)

// HeaderLen is the UDP header size in bytes.
const HeaderLen = 8

// Endpoint identifies one side of a UDP exchange.
type Endpoint = inet.Endpoint

// Errors returned by the package.
var (
	ErrTruncated   = errors.New("udp: truncated datagram")
	ErrBadChecksum = errors.New("udp: checksum mismatch")
	ErrPortInUse   = errors.New("udp: port already bound")
)

// Marshal builds a wire-format UDP datagram with checksum, given the IP
// addresses for the pseudo-header.
func Marshal(src, dst ipv4.Addr, srcPort, dstPort uint16, payload []byte) []byte {
	b := make([]byte, HeaderLen+len(payload))
	MarshalInto(b, src, dst, srcPort, dstPort, payload)
	return b
}

// MarshalInto serializes a UDP datagram into b, which must be exactly
// HeaderLen+len(payload) bytes (typically a pooled frame buffer).
func MarshalInto(b []byte, src, dst ipv4.Addr, srcPort, dstPort uint16, payload []byte) {
	b[0] = byte(srcPort >> 8)
	b[1] = byte(srcPort)
	b[2] = byte(dstPort >> 8)
	b[3] = byte(dstPort)
	total := HeaderLen + len(payload)
	b[4] = byte(total >> 8)
	b[5] = byte(total)
	b[6], b[7] = 0, 0 // checksum, zero while summing
	copy(b[HeaderLen:], payload)
	sum := ipv4.PseudoChecksum(src, dst, ipv4.ProtoUDP, b)
	if sum == 0 {
		sum = 0xffff // RFC 768: transmitted zero means "no checksum"
	}
	b[6] = byte(sum >> 8)
	b[7] = byte(sum)
}

// Unmarshal parses and validates a UDP datagram.
func Unmarshal(src, dst ipv4.Addr, b []byte) (srcPort, dstPort uint16, payload []byte, err error) {
	if len(b) < HeaderLen {
		return 0, 0, nil, ErrTruncated
	}
	length := int(b[4])<<8 | int(b[5])
	if length < HeaderLen || length > len(b) {
		return 0, 0, nil, ErrTruncated
	}
	if sum := uint16(b[6])<<8 | uint16(b[7]); sum != 0 {
		if ipv4.PseudoChecksum(src, dst, ipv4.ProtoUDP, b[:length]) != 0 {
			return 0, 0, nil, ErrBadChecksum
		}
	}
	srcPort = uint16(b[0])<<8 | uint16(b[1])
	dstPort = uint16(b[2])<<8 | uint16(b[3])
	return srcPort, dstPort, b[HeaderLen:length], nil
}

// Receiver is handed each datagram delivered to a bound socket, and local is
// the address it arrived for: wildcard sockets tell virtual hosts apart by it.
// Like a sim.Handler, it is best a named pointer type, which allocates nothing.
type Receiver interface {
	Receive(from Endpoint, local ipv4.Addr, payload []byte)
}

// RecvFunc adapts a plain callback to a Receiver.
type RecvFunc func(from Endpoint, local ipv4.Addr, payload []byte)

func (f RecvFunc) Receive(from Endpoint, local ipv4.Addr, payload []byte) { f(from, local, payload) }

type binding struct {
	port uint16
	addr ipv4.Addr // 0 = any local address
	recv Receiver
}

// Stack is the per-node UDP layer.
type Stack struct {
	ip *ipv4.Stack
	// bindings is a handful on any host (the acknowledgment channel, the
	// management daemon, a UDP service or two), so a scan beats a hash.
	bindings  []binding
	bindings0 [4]binding // bindings' backing while there are at most four

	// Stats
	delivered, noListener, badDatagram uint64
}

var _ ipv4.ProtocolHandler = (*Stack)(nil)

// NewStack creates the UDP layer and registers it with the IP stack.
func NewStack(ip *ipv4.Stack) *Stack { return new(Stack).Init(ip) }

// Init is NewStack for a Stack embedded by value, which must not be copied
// afterwards.
func (s *Stack) Init(ip *ipv4.Stack) *Stack {
	s.ip, s.bindings = ip, s.bindings0[:0]
	ip.RegisterProto(ipv4.ProtoUDP, s)
	return s
}

// Stats returns delivered, no-listener and malformed datagram counts.
func (s *Stack) Stats() (delivered, noListener, bad uint64) {
	return s.delivered, s.noListener, s.badDatagram
}

// Bind registers recv for datagrams to (addr, port). addr 0 binds all local
// addresses. Binding the same (addr, port) twice fails.
func (s *Stack) Bind(addr ipv4.Addr, port uint16, recv Receiver) error {
	if s.find(addr, port) >= 0 {
		return fmt.Errorf("%w: %s:%d", ErrPortInUse, addr, port)
	}
	s.bindings = append(s.bindings, binding{port: port, addr: addr, recv: recv})
	return nil
}

// Unbind removes the binding for (addr, port).
func (s *Stack) Unbind(addr ipv4.Addr, port uint16) {
	if i := s.find(addr, port); i >= 0 {
		s.bindings = slices.Delete(s.bindings, i, i+1)
	}
}

// find returns the index of the binding for (addr, port), or -1.
func (s *Stack) find(addr ipv4.Addr, port uint16) int {
	for i, b := range s.bindings {
		if b.port == port && b.addr == addr {
			return i
		}
	}
	return -1
}

// SendTo transmits a datagram from (srcAddr, srcPort) to dst. A zero
// srcAddr lets the IP layer pick the outgoing interface address.
func (s *Stack) SendTo(srcAddr ipv4.Addr, srcPort uint16, dst Endpoint, payload []byte) error {
	// The checksum covers the pseudo-header, so the source address must be
	// resolved before marshaling when left unspecified.
	if srcAddr == 0 {
		srcAddr = s.ip.SourceFor(dst.Addr)
	}
	fb := s.ip.Node().Pool().Get(HeaderLen + len(payload))
	MarshalInto(fb.Bytes(), srcAddr, dst.Addr, srcPort, dst.Port, payload)
	return s.ip.SendSegment(ipv4.ProtoUDP, srcAddr, dst.Addr, fb)
}

// DeliverIP implements ipv4.ProtocolHandler.
func (s *Stack) DeliverIP(p *ipv4.Packet) {
	srcPort, dstPort, payload, err := Unmarshal(p.Src, p.Dst, p.Payload)
	if err != nil {
		s.badDatagram++
		return
	}
	// The binding for the datagram's own address wins over a wildcard.
	var recv Receiver
	for _, b := range s.bindings {
		if b.port != dstPort {
			continue
		}
		if b.addr == p.Dst {
			recv = b.recv
			break
		}
		if b.addr == 0 {
			recv = b.recv
		}
	}
	if recv != nil {
		s.delivered++
		recv.Receive(Endpoint{Addr: p.Src, Port: srcPort}, p.Dst, payload)
		return
	}
	s.noListener++
}
