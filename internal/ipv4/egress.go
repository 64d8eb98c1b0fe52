package ipv4

import (
	"fmt"

	"hydranet/internal/frame"
)

// SendSegment originates a datagram whose payload was marshalled by a
// transport layer directly into a pooled frame buffer. The stack takes
// ownership of fb on every path: the header is prepended in place and the
// frame goes to emit.
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
	total := HeaderLen + fb.Len() // before Prepend moves fb's start
	h.putHeader(fb.Prepend(HeaderLen), total)
	return s.emit(fb, ifindex)
}

// SendEncap wraps inner in an IP-in-IP datagram addressed to host and
// transmits it, choosing the outer source from the outgoing interface. The
// inner datagram is tunnelled verbatim, options included (RFC 2003 §3): its
// received wire bytes are copied once, with the TTL the router has since
// given it, and the outer header is prepended in place. inner must have come
// off the fabric: the redirector's forward hook hands it over.
func (s *Stack) SendEncap(inner *Packet, host Addr) error {
	ifindex := s.routes.Lookup(host)
	if ifindex < 0 {
		s.stats.NoRoute++
		return fmt.Errorf("ipv4: no route to %s", host)
	}
	outer := Header{TTL: DefaultTTL, Proto: ProtoIPIP, Src: s.Addr(ifindex), Dst: host, ID: s.allocID()}
	fb := s.copyWire(inner)
	total := HeaderLen + fb.Len() // before Prepend moves fb's start
	outer.putHeader(fb.Prepend(HeaderLen), total)
	return s.emit(fb, ifindex)
}

// forward routes an already-parsed transit datagram onward.
func (s *Stack) forward(p *Packet) error {
	ifindex := s.routes.Lookup(p.Dst)
	if ifindex < 0 {
		s.stats.NoRoute++
		return fmt.Errorf("ipv4: no route to %s", p.Dst)
	}
	return s.emit(s.copyWire(p), ifindex)
}

// copyWire copies a received datagram's wire bytes into a pooled frame. If
// the stack has decremented p's TTL since parsing it, only the TTL word is
// patched: the header checksum updates incrementally (RFC 1624) instead of
// being recomputed.
func (s *Stack) copyWire(p *Packet) *frame.Buf {
	fb := s.node.Pool().GetCopy(p.wire)
	if b := fb.Bytes(); b[8] != p.TTL {
		PatchTTL(b, p.TTL)
	}
	return fb
}

// emit is the stack's one way to the wire. fb holds a datagram's complete
// wire bytes, and emit owns it on every path: a datagram that fits
// ifindex's MTU is handed to the fabric as it is; a larger one is cut into
// fragments, each in its own pooled frame, and fb is released.
func (s *Stack) emit(fb *frame.Buf, ifindex int) error {
	b := fb.Bytes()
	if len(b) > 0xffff {
		fb.Release()
		return fmt.Errorf("ipv4: datagram of %d bytes exceeds 65535", len(b))
	}
	mtu := s.node.MTU(ifindex)
	if len(b) <= mtu {
		s.node.SendFrame(ifindex, fb)
		return nil
	}
	err := cutFragments(s.node.Pool(), b, mtu, func(f *frame.Buf) { s.node.SendFrame(ifindex, f) })
	fb.Release()
	return err
}
