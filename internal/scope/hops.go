// Package scope is hydrascope's analysis engine: it reads each ft-TCP
// segment's hops off a capture and loads and renders invariant audit
// reports.
//
// It runs offline, after the simulation, so it is deliberately outside the
// determinism fence: it sorts whatever it loads and owns its own output
// stability.
package scope

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"hydranet/internal/capture"
	"hydranet/internal/core"
	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/metrics"
	"hydranet/internal/tcp"
	"hydranet/internal/udp"
)

// Hop is one replica's instant for a segment: its first tunnel copy, or its
// first acknowledgment-channel datagram whose RcvNxt passed the segment. To
// is where that datagram went, the replica's chain predecessor.
type Hop struct {
	Replica, To inet.Addr
	At          time.Duration
}

// Segment is what a capture shows of one client data segment of an FT
// connection, in virtual time.
type Segment struct {
	Seq tcp.Seq
	// InAt is when the frame that reached the redirector was sent, and
	// MulticastAt when the redirector tunnelled it (the encap tap's record).
	InAt, MulticastAt time.Duration
	// Copies are the replicas' first tunnel copies, in wire order, and
	// Datagrams the backups' first covering ack-channel datagrams: a
	// backup's deposit as the wire shows it.
	Copies, Datagrams []Hop
	// FirstAckAt is when the service first acknowledged past Seq: the
	// primary's deposit, up to a delayed ACK later.
	FirstAckAt time.Duration
}

// Timeline is one FT connection's segments, in multicast order.
type Timeline struct {
	Service, Client inet.Endpoint
	// Retransmits counts multicasts whose sequence number did not advance:
	// the redirector's copies of client retransmissions, kept out of
	// Segments.
	Retransmits uint64
	Segments    []*Segment

	dgIdx  map[inet.Addr]int // per backup: the first segment no datagram covers yet
	ackIdx int
}

type connKey struct{ service, client inet.Endpoint }

type segKey struct {
	src, dst inet.Endpoint
	seq      tcp.Seq
}

// segState follows one data segment's records: the last one seen, and
// whether it was the encap tap's copy of the one before.
type segState struct {
	last   []byte
	lastAt time.Duration
	inner  bool
	seg    *Segment // nil until the first multicast, and after a retransmitted one
}

// Timelines reads f's records in order and returns every FT connection's
// timeline, in first-multicast order. A client data segment's first record
// is its transmit; a record byte-identical to the one before it is the
// encap tap's inner copy, which marks the multicast (a retransmission
// carries a fresh IP ID, a forwarded frame a lower TTL). Chain datagrams
// and ACKs that cross a router appear twice; the first, covering record is
// the sender's.
func Timelines(f *capture.File) []*Timeline {
	conns := map[connKey]*Timeline{}
	segs := map[segKey]*segState{}
	var order []*Timeline
	var p ipv4.Packet
	var seg tcp.Segment
	var msg core.ChainMsg
	for i := range f.Records {
		rec := &f.Records[i]
		if p.Unmarshal(rec.Data) != nil || p.FragOff != 0 {
			continue
		}
		switch p.Proto {
		case ipv4.ProtoIPIP:
			// A full-MSS copy fragments, and ipv4.Packet.Unmarshal rejects
			// the inner packet of its first fragment: read the headers here.
			in := p.Payload
			if len(in) < ipv4.HeaderLen || in[0]>>4 != 4 || in[9] != ipv4.ProtoTCP {
				continue
			}
			ihl := int(in[0]&0x0f) * 4
			if ihl < ipv4.HeaderLen || len(in) < ihl+8 {
				continue
			}
			th := in[ihl:]
			k := segKey{
				src: inet.Endpoint{Addr: inet.Addr(binary.BigEndian.Uint32(in[12:16])), Port: binary.BigEndian.Uint16(th[0:2])},
				dst: inet.Endpoint{Addr: inet.Addr(binary.BigEndian.Uint32(in[16:20])), Port: binary.BigEndian.Uint16(th[2:4])},
				seq: tcp.Seq(binary.BigEndian.Uint32(th[4:8])),
			}
			if st := segs[k]; st != nil && st.seg != nil {
				if _, dup := hopAt(st.seg.Copies, p.Dst); dup {
					continue
				}
				st.seg.Copies = append(st.seg.Copies, Hop{Replica: p.Dst, At: rec.Ts})
			}
		case ipv4.ProtoUDP:
			_, port, payload, err := udp.Unmarshal(p.Src, p.Dst, p.Payload)
			if err != nil || port != core.AckChannelPort || msg.Unmarshal(payload) != nil {
				continue
			}
			tl := conns[connKey{msg.Service, msg.Client}]
			if tl == nil {
				continue
			}
			j := tl.dgIdx[p.Src]
			for ; j < len(tl.Segments) && tl.Segments[j].Seq.LT(msg.RcvNxt); j++ {
				s := tl.Segments[j]
				s.Datagrams = append(s.Datagrams, Hop{Replica: p.Src, To: p.Dst, At: rec.Ts})
			}
			tl.dgIdx[p.Src] = j
		case ipv4.ProtoTCP:
			if seg.Unmarshal(p.Src, p.Dst, p.Payload) != nil {
				continue
			}
			src, dst := inet.Endpoint{Addr: p.Src, Port: seg.SrcPort}, inet.Endpoint{Addr: p.Dst, Port: seg.DstPort}
			if tl := conns[connKey{src, dst}]; tl != nil && seg.Flags.Has(tcp.FlagACK) {
				for ; tl.ackIdx < len(tl.Segments) && tl.Segments[tl.ackIdx].Seq.LT(seg.Ack); tl.ackIdx++ {
					tl.Segments[tl.ackIdx].FirstAckAt = rec.Ts
				}
			}
			if len(seg.Payload) == 0 {
				continue
			}
			k := segKey{src, dst, seg.Seq}
			st := segs[k]
			switch {
			case st == nil:
				segs[k] = &segState{last: rec.Data, lastAt: rec.Ts}
				continue
			case !bytes.Equal(st.last, rec.Data):
				st.last, st.lastAt, st.inner = rec.Data, rec.Ts, false
				continue
			case st.inner: // the tap's copy for a further replica
				continue
			}
			st.inner = true
			tl := conns[connKey{dst, src}]
			if tl == nil {
				tl = &Timeline{Service: dst, Client: src, dgIdx: map[inet.Addr]int{}}
				conns[connKey{dst, src}] = tl
				order = append(order, tl)
			} else if seg.Seq.LEQ(tl.Segments[len(tl.Segments)-1].Seq) {
				tl.Retransmits++
				st.seg = nil
				continue
			}
			st.seg = &Segment{Seq: seg.Seq, InAt: st.lastAt, MulticastAt: rec.Ts}
			tl.Segments = append(tl.Segments, st.seg)
		}
	}
	return order
}

// hopAt returns when replica's hop in hops happened.
func hopAt(hops []Hop, replica inet.Addr) (time.Duration, bool) {
	for _, h := range hops {
		if h.Replica == replica {
			return h.At, true
		}
	}
	return 0, false
}

// WriteHops renders each timeline's per-hop residence in milliseconds, one
// row per hop kind in metrics.Histogram's line format: redirector in,
// each fan-out step between successive tunnel copies, multicast → each
// replica's wire deposit, and each chain hop (a backup's datagram → its
// predecessor's, or → the service's first ACK).
func WriteHops(w io.Writer, tls []*Timeline) {
	if len(tls) == 0 {
		fmt.Fprintf(w, "\nft-TCP hops: none, the capture holds no redirector tunnel copy\n")
		return
	}
	fmt.Fprintf(w, "\nft-TCP hops read off the capture (ms):\n")
	for _, tl := range tls {
		fmt.Fprintf(w, "  %s ← %s: %d segments, %d client retransmissions\n",
			tl.Service, tl.Client, len(tl.Segments), tl.Retransmits)
		rows := map[string]*metrics.Histogram{}
		var names []string
		add := func(name string, d time.Duration) {
			if rows[name] == nil {
				rows[name] = new(metrics.Histogram)
				names = append(names, name)
			}
			rows[name].Observe(float64(d) / float64(time.Millisecond))
		}
		// to names a replica's deposit instant for s: its datagram, or the
		// service's first ACK if it sent none for s (it is the head).
		to := func(s *Segment, replica inet.Addr) (string, time.Duration, bool) {
			if at, ok := hopAt(s.Datagrams, replica); ok {
				return replica.String() + " datagram", at, true
			}
			return replica.String() + " first ACK", s.FirstAckAt, s.FirstAckAt != 0
		}
		for _, s := range tl.Segments {
			add("redirector in", s.MulticastAt-s.InAt)
			for i := 1; i < len(s.Copies); i++ {
				add("fan-out step", s.Copies[i].At-s.Copies[i-1].At)
			}
			for _, c := range s.Copies {
				if name, at, ok := to(s, c.Replica); ok {
					add("multicast → "+name, at-s.MulticastAt)
				}
			}
			for _, d := range s.Datagrams {
				if name, at, ok := to(s, d.To); ok {
					add("chain hop "+d.Replica.String()+" → "+name, at-d.At)
				}
			}
		}
		for _, name := range names {
			fmt.Fprintf(w, "    %-44s %s\n", name, rows[name].Snapshot())
		}
	}
}
