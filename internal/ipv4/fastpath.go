package ipv4

import (
	"fmt"

	"hydranet/internal/frame"
)

// SendSegment originates a datagram whose payload was marshalled by a
// transport layer directly into a pooled frame buffer. The stack takes
// ownership of fb on every path. If the buffer has IP headroom and the
// datagram fits the outgoing MTU, the header is prepended in place and the
// frame reaches the fabric without a single copy; otherwise it falls back
// to the fragmenting slow path.
//
// src must be concrete (not zero): the transport computed its pseudo-header
// checksum over it, so source selection already happened.
func (s *Stack) SendSegment(proto uint8, src, dst Addr, fb *frame.Buf) error {
	h := Header{TTL: DefaultTTL, Proto: proto, Src: src, Dst: dst, ID: s.allocID()}
	if s.IsLocal(dst) {
		// Loopback: deliver asynchronously so protocol code never reenters
		// itself within one call stack. The frame must stay alive until the
		// deferred delivery runs.
		s.stats.Originated++
		s.sched.After(0, func() {
			if s.node.Alive() {
				p := &Packet{Header: h, Payload: fb.Bytes()}
				p.TotalLen = HeaderLen + fb.Len()
				s.deliverLocal(p)
			}
			fb.Release()
		})
		return nil
	}
	ifindex := s.routes.Lookup(dst)
	if ifindex < 0 {
		fb.Release()
		s.stats.NoRoute++
		return fmt.Errorf("ipv4: no route to %s", dst)
	}
	s.stats.Originated++
	total := HeaderLen + fb.Len()
	if total > s.node.MTU(ifindex) || fb.Headroom() < HeaderLen {
		// Slow path: fragmentation. The fragments copy out of fb, so it can
		// be released as soon as transmit returns.
		p := &Packet{Header: h, Payload: fb.Bytes()}
		err := s.transmit(p, ifindex)
		fb.Release()
		return err
	}
	p := Packet{Header: h}
	p.putHeader(fb.Prepend(HeaderLen), total)
	s.node.SendFrame(ifindex, fb)
	return nil
}

// SendEncap wraps inner in an IP-in-IP datagram addressed to host and
// transmits it, choosing the outer source from the outgoing interface. When
// the inner packet still carries its received wire bytes and the result
// fits the MTU, the inner datagram is copied once into a pooled buffer with
// its TTL patched incrementally (RFC 1624) — no re-marshal, no payload
// re-checksum — and the outer header is prepended in place. Oversized
// results take the fragmenting slow path, preserving tunnel-induced
// fragmentation behaviour.
func (s *Stack) SendEncap(inner *Packet, host Addr) error {
	ifindex := s.routes.Lookup(host)
	if ifindex < 0 {
		s.stats.NoRoute++
		return fmt.Errorf("ipv4: no route to %s", host)
	}
	outer := Packet{Header: Header{
		TTL:   DefaultTTL,
		Proto: ProtoIPIP,
		Src:   s.Addr(ifindex),
		Dst:   host,
		ID:    s.allocID(),
	}}
	innerLen := HeaderLen + len(inner.Payload)
	total := HeaderLen + innerLen
	if w := inner.wire; len(w) == innerLen && total <= s.node.MTU(ifindex) {
		fb := s.node.Pool().Get(innerLen)
		b := fb.Bytes()
		copy(b, w)
		if b[8] != inner.TTL {
			// The router decremented TTL after the frame was parsed.
			PatchTTL(b, inner.TTL)
		}
		outer.putHeader(fb.Prepend(HeaderLen), total)
		s.node.SendFrame(ifindex, fb)
		return nil
	}
	// Slow path: re-marshal the inner packet into the stack's staging buffer
	// and run the outer datagram through fragmentation.
	if err := inner.checkMarshal(innerLen); err != nil {
		return err
	}
	if cap(s.encap) < innerLen {
		s.encap = make([]byte, innerLen)
	}
	outer.Payload = s.encap[:innerLen]
	inner.marshalInto(outer.Payload)
	return s.transmit(&outer, ifindex)
}

// forward routes an already-parsed transit datagram onward. When the
// received wire bytes are usable and fit the next hop's MTU, they are
// copied once into a pooled buffer and only the TTL word is patched —
// the header checksum updates incrementally instead of being recomputed.
func (s *Stack) forward(p *Packet) error {
	ifindex := s.routes.Lookup(p.Dst)
	if ifindex < 0 {
		s.stats.NoRoute++
		return fmt.Errorf("ipv4: no route to %s", p.Dst)
	}
	if w := p.wire; len(w) > 0 && len(w) <= s.node.MTU(ifindex) {
		fb := s.node.Pool().Get(len(w))
		b := fb.Bytes()
		copy(b, w)
		if b[8] != p.TTL {
			PatchTTL(b, p.TTL)
		}
		s.node.SendFrame(ifindex, fb)
		return nil
	}
	return s.transmit(p, ifindex)
}
