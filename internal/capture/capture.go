package capture

import (
	"io"
	"time"

	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
)

// Capture streams fabric frames (and optionally pre-encap inner packets)
// into a pcap Writer, timestamped on the virtual clock.
//
// The fabric tap fires on every link in both directions, so a capture of
// an FT run shows the client's plain TCP segments on the access link and
// the redirector's IP-in-IP copies (protocol 4) on each replica link — the
// encapsulation is visible on the wire itself. The encap tap additionally
// records each inner packet at the instant the redirector tunnels it,
// which pins the multicast fan-out moment even when the outer copies are
// later reordered or lost.
type Capture struct {
	w     *Writer
	now   func() time.Duration
	inner uint64
}

// New writes a pcap header to w and returns a Capture stamping records with
// the given virtual clock (normally Scheduler.Now).
func New(w io.Writer, now func() time.Duration) (*Capture, error) {
	pw, err := NewWriter(w)
	if err != nil {
		return nil, err
	}
	return &Capture{w: pw, now: now}, nil
}

// FrameTap returns the netsim tap. Frames are raw IPv4, matching the
// writer's LINKTYPE_RAW; bytes are consumed synchronously (the writer
// serializes before returning), honoring the pooled-frame ownership rule.
func (c *Capture) FrameTap() netsim.FrameTap {
	return func(from, to *netsim.Node, data []byte) {
		c.w.WritePacket(c.now(), data)
	}
}

// CaptureInner is a redirector.EncapTap: it records the pre-encapsulation
// inner packet as its own pcap record. The packet's wire bytes alias the
// fabric frame, so they are written out synchronously here; packets without
// wire bytes (locally built, never the redirector intercept path) are
// skipped rather than re-marshalled.
func (c *Capture) CaptureInner(inner *ipv4.Packet, host ipv4.Addr) {
	wire := inner.Wire()
	if len(wire) == 0 {
		return
	}
	c.inner++
	c.w.WritePacket(c.now(), wire)
}

// Packets returns the total records written (fabric frames + inner copies).
func (c *Capture) Packets() uint64 { return c.w.Packets() }

// InnerPackets returns how many pre-encap inner records were written.
func (c *Capture) InnerPackets() uint64 { return c.inner }

// Err returns the writer's sticky error, if any.
func (c *Capture) Err() error { return c.w.Err() }
