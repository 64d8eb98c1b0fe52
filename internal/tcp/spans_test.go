package tcp

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/obs"
)

var (
	spanSvc    = Endpoint{Addr: inet.AddrFrom4(10, 0, 0, 9), Port: 80}
	spanClient = Endpoint{Addr: inet.AddrFrom4(10, 0, 0, 1), Port: 4000}
)

func spanBus() (*time.Duration, *obs.Bus) {
	now := new(time.Duration)
	return now, obs.NewBus(func() time.Duration { return *now })
}

// publishAt stamps the event with the current clock via the bus.
func publishAt(now *time.Duration, b *obs.Bus, at time.Duration, e obs.Event) {
	*now = at
	b.Publish(e)
}

// TestSpanCollectorAssemblesTimeline drives the collector with the exact
// event sequence an inbound-atomic two-replica chain produces for one
// multicast segment: fan-out, tail (s1) deposit, chain report arriving at
// s0, s0's gated deposit, and finally the client's ACK point passing the
// span.
func TestSpanCollectorAssemblesTimeline(t *testing.T) {
	now, bus := spanBus()
	sc := NewSpanCollector(bus)

	// Two data segments fanned out (1000 bytes each, first byte seq 1000).
	publishAt(now, bus, 10*time.Millisecond,
		obs.Event{Kind: obs.KindMulticast, Node: "rd", Service: spanSvc, Conn: spanClient, Seq: 1000})
	publishAt(now, bus, 11*time.Millisecond,
		obs.Event{Kind: obs.KindMulticast, Node: "rd", Service: spanSvc, Conn: spanClient, Seq: 2000})

	// The chain tail deposits the first segment: its receive cursor passes
	// seq 2000, covering span 1000 but not span 2000.
	publishAt(now, bus, 12*time.Millisecond,
		obs.Event{Kind: obs.KindDeposit, Node: "s1", Service: spanSvc, Conn: spanClient, Seq: 2000, Size: 1000})
	// s0 hears about it on the acknowledgment channel...
	publishAt(now, bus, 13*time.Millisecond,
		obs.Event{Kind: obs.KindChainRecv, Node: "s0", Service: spanSvc, Conn: spanClient, Ack: 2000})
	// ...and only then deposits (inbound atomicity).
	publishAt(now, bus, 14*time.Millisecond,
		obs.Event{Kind: obs.KindDeposit, Node: "s0", Service: spanSvc, Conn: spanClient, Seq: 2000, Size: 1000})
	// The client's cumulative ACK point passes the span. On the client's
	// conn the local endpoint is the client, so Service/Conn are inverted.
	publishAt(now, bus, 15*time.Millisecond,
		obs.Event{Kind: obs.KindAckProgress, Node: "client", Service: spanClient, Conn: spanSvc, Seq: 2000, Size: 1000})

	tls := sc.Timelines()
	if len(tls) != 1 {
		t.Fatalf("timelines = %d, want 1", len(tls))
	}
	tl := tls[0]
	if tl.Service != "10.0.0.9:80" || tl.Client != "10.0.0.1:4000" {
		t.Fatalf("timeline keyed %q/%q", tl.Service, tl.Client)
	}
	if len(tl.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(tl.Spans))
	}
	s := tl.Spans[0]
	if s.Seq != 1000 || s.MulticastAt != 10*time.Millisecond {
		t.Fatalf("span 0 = %+v", s)
	}
	if h := s.Hops["s1"]; h == nil || h.DepositAt != 12*time.Millisecond || h.ChainArrivalAt != 0 {
		t.Fatalf("tail hop = %+v", s.Hops["s1"])
	}
	if h := s.Hops["s0"]; h == nil || h.ChainArrivalAt != 13*time.Millisecond || h.DepositAt != 14*time.Millisecond {
		t.Fatalf("head hop = %+v", s.Hops["s0"])
	}
	if s.ClientAckAt != 15*time.Millisecond {
		t.Fatalf("client ack at %v", s.ClientAckAt)
	}
	// The second span saw nothing yet.
	if s2 := tl.Spans[1]; len(s2.Hops) != 0 || s2.ClientAckAt != 0 {
		t.Fatalf("span 1 touched prematurely: %+v", s2)
	}

	// Derived histograms: two deposit stalls (12−10 = 2 ms at the tail,
	// 14−10 = 4 ms at the head) and one ack-chain hop lag (13−12 = 1 ms).
	ds := sc.DepositStall()
	if ds.Count != 2 || ds.Min != 2 || ds.Max != 4 {
		t.Fatalf("deposit stall = %+v", ds)
	}
	al := sc.AckChainLag()
	if al.Count != 1 || al.Min != 1 || al.Max != 1 {
		t.Fatalf("ack-chain lag = %+v", al)
	}
}

// TestSpanCollectorRetransmitsDedupe: a multicast whose sequence number does
// not advance is a redirector copy of a client retransmission — counted, not
// re-spanned.
func TestSpanCollectorRetransmitsDedupe(t *testing.T) {
	now, bus := spanBus()
	sc := NewSpanCollector(bus)
	publishAt(now, bus, time.Millisecond,
		obs.Event{Kind: obs.KindMulticast, Service: spanSvc, Conn: spanClient, Seq: 1000})
	publishAt(now, bus, 2*time.Millisecond,
		obs.Event{Kind: obs.KindMulticast, Service: spanSvc, Conn: spanClient, Seq: 1000})
	publishAt(now, bus, 3*time.Millisecond,
		obs.Event{Kind: obs.KindMulticast, Service: spanSvc, Conn: spanClient, Seq: 2000})

	tl := sc.Timelines()[0]
	if len(tl.Spans) != 2 || tl.RetransmitMulticasts != 1 {
		t.Fatalf("spans = %d, rexmit = %d; want 2, 1", len(tl.Spans), tl.RetransmitMulticasts)
	}
	// The original span's timestamp is the first fan-out, not the copy's.
	if tl.Spans[0].MulticastAt != time.Millisecond {
		t.Fatalf("span 0 multicast at %v", tl.Spans[0].MulticastAt)
	}
}

// TestSpanCollectorIgnoresNonSpanEvents: pure ACKs (no Seq stamped by the
// redirector), foreign connections, and deposits for unknown conns must not
// create or touch spans.
func TestSpanCollectorIgnoresNonSpanEvents(t *testing.T) {
	now, bus := spanBus()
	sc := NewSpanCollector(bus)

	// Pure ACK multicast: the redirector leaves Seq zero.
	publishAt(now, bus, time.Millisecond,
		obs.Event{Kind: obs.KindMulticast, Service: spanSvc, Conn: spanClient})
	// Deposit for a connection never multicast.
	publishAt(now, bus, 2*time.Millisecond,
		obs.Event{Kind: obs.KindDeposit, Node: "s0", Service: Endpoint{Addr: 9, Port: 1}, Conn: Endpoint{Addr: 8, Port: 2}, Seq: 500})
	// Ack progress on the service side (non-inverted key) must not match.
	publishAt(now, bus, 3*time.Millisecond,
		obs.Event{Kind: obs.KindMulticast, Service: spanSvc, Conn: spanClient, Seq: 1000})
	publishAt(now, bus, 4*time.Millisecond,
		obs.Event{Kind: obs.KindAckProgress, Node: "s0", Service: spanSvc, Conn: spanClient, Seq: 2000})

	tls := sc.Timelines()
	if len(tls) != 1 || len(tls[0].Spans) != 1 {
		t.Fatalf("timelines = %+v", tls)
	}
	if tls[0].Spans[0].ClientAckAt != 0 {
		t.Fatal("service-side ack-progress matched the client slot")
	}
}

func TestSpanCollectorBoundsSpansPerConn(t *testing.T) {
	now, bus := spanBus()
	sc := NewSpanCollector(bus)
	for i := 0; i < maxSpansPerConn+3; i++ {
		publishAt(now, bus, time.Duration(i+1)*time.Millisecond,
			obs.Event{Kind: obs.KindMulticast, Service: spanSvc, Conn: spanClient, Seq: uint64(1000 * (i + 1))})
	}
	if got := len(sc.Timelines()[0].Spans); got != maxSpansPerConn {
		t.Fatalf("spans = %d, want %d", got, maxSpansPerConn)
	}
	if sc.DroppedSpans() != 3 {
		t.Fatalf("dropped = %d, want 3", sc.DroppedSpans())
	}
}

// TestSpanCollectorSeqWraparound: sequence comparison is mod-2^32 (Seq
// arithmetic), so spans spanning the wrap point still resolve.
func TestSpanCollectorSeqWraparound(t *testing.T) {
	now, bus := spanBus()
	sc := NewSpanCollector(bus)
	high := uint64(0xffffff00)
	publishAt(now, bus, time.Millisecond,
		obs.Event{Kind: obs.KindMulticast, Service: spanSvc, Conn: spanClient, Seq: high})
	// Deposit cursor wrapped past zero: 0x100 covers 0xffffff00.
	publishAt(now, bus, 2*time.Millisecond,
		obs.Event{Kind: obs.KindDeposit, Node: "s1", Service: spanSvc, Conn: spanClient, Seq: 0x100, Size: 512})
	s := sc.Timelines()[0].Spans[0]
	if h := s.Hops["s1"]; h == nil || h.DepositAt != 2*time.Millisecond {
		t.Fatalf("wrapped deposit not matched: %+v", s.Hops)
	}
}

func TestSpanCollectorWriteJSON(t *testing.T) {
	now, bus := spanBus()
	sc := NewSpanCollector(bus)
	publishAt(now, bus, time.Millisecond,
		obs.Event{Kind: obs.KindMulticast, Service: spanSvc, Conn: spanClient, Seq: 1000})
	publishAt(now, bus, 2*time.Millisecond,
		obs.Event{Kind: obs.KindDeposit, Node: "s1", Service: spanSvc, Conn: spanClient, Seq: 2000, Size: 1000})

	var buf bytes.Buffer
	if err := sc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Timelines []struct {
			Service string `json:"service"`
			Spans   []struct {
				Seq      uint64 `json:"seq"`
				Replicas map[string]struct {
					DepositAt int64 `json:"deposit_at"`
				} `json:"replicas"`
			} `json:"spans"`
		} `json:"timelines"`
		DepositStallMS struct {
			Count uint64 `json:"count"`
		} `json:"deposit_stall_ms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Timelines) != 1 || out.Timelines[0].Service != "10.0.0.9:80" {
		t.Fatalf("timelines JSON = %+v", out.Timelines)
	}
	sp := out.Timelines[0].Spans[0]
	if sp.Seq != 1000 || sp.Replicas["s1"].DepositAt != int64(2*time.Millisecond) {
		t.Fatalf("span JSON = %+v", sp)
	}
	if out.DepositStallMS.Count != 1 {
		t.Fatalf("histogram JSON = %+v", out.DepositStallMS)
	}
}
