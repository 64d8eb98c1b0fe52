package tcp

import (
	"encoding/json"
	"io"
	"time"

	"hydranet/internal/metrics"
	"hydranet/internal/obs"
)

// SpanCollector assembles per-connection trace spans for ft-TCP traffic
// from bus events: each client byte range (one data-bearing segment the
// redirector multicasts) becomes a Span recording when the redirector
// fanned it out, when each replica's acknowledgment channel reported it,
// when each Si deposited it, and when the client finally saw the primary's
// ACK. The result is the paper's Table-2 timeline at per-segment
// resolution, plus two derived histograms: ack-chain lag per hop and
// deposit stall time.
//
// Correlation works on raw sequence numbers. ft-TCP derives the ISS from
// the connection 4-tuple (Stack.TupleISS), so every replica speaks the
// same client sequence space and the same raw seq names the same byte
// everywhere — the multicast event's seq matches the deposit cursors and
// chain-message cursors observed at each replica without translation.
//
// Event matching is cursor-based and monotone: spans for a connection are
// created in increasing sequence order (retransmitted multicasts are
// detected by non-advancing seq and counted, not re-spanned), and each
// replica's deposit/chain cursors only advance, so each event resolves in
// amortized O(1) with a per-node index. A span instant is "covered" by a
// cursor when the cursor passed the span's first byte.
type SpanCollector struct {
	conns map[spanConnKey]*connSpans
	order []spanConnKey

	droppedSpans uint64

	ackLagMS       metrics.Histogram
	depositStallMS metrics.Histogram
}

type spanConnKey struct {
	service, client Endpoint
}

// maxSpansPerConn bounds each connection's span list; segments past the
// bound are counted in DroppedSpans rather than recorded.
const maxSpansPerConn = 4096

// NewSpanCollector subscribes a collector to the bus.
func NewSpanCollector(b *obs.Bus) *SpanCollector {
	sc := &SpanCollector{conns: make(map[spanConnKey]*connSpans)}
	b.Subscribe(sc.observe,
		obs.KindMulticast, obs.KindDeposit, obs.KindChainRecv, obs.KindAckProgress)
	return sc
}

// SpanHop is one replica's view of a span. Zero durations mean "never
// observed" — virtual time has advanced past zero by the time any ft-TCP
// data can flow, so zero is unambiguous in practice.
type SpanHop struct {
	// ChainArrivalAt is when this replica's acknowledgment channel learned
	// that its successor had covered the span (chain-recv cursor passed it).
	ChainArrivalAt time.Duration `json:"chain_arrival_at,omitempty"`
	// DepositAt is when this replica deposited the span's first byte to the
	// application (its receive cursor passed it) — gated, for every replica
	// but the chain tail, on ChainArrivalAt by the inbound-atomicity rule.
	DepositAt time.Duration `json:"deposit_at,omitempty"`
}

// Span is the timeline of one multicast client byte range.
type Span struct {
	// Seq is the raw TCP sequence number of the range's first byte.
	Seq uint64 `json:"seq"`
	// MulticastAt is when the redirector fanned the segment out.
	MulticastAt time.Duration `json:"multicast_at"`
	// ClientAckAt is when the client's cumulative ACK point passed the
	// span — the end of the multicast → deposit → ack chain (zero if never
	// observed).
	ClientAckAt time.Duration `json:"client_ack_at,omitempty"`
	// Hops is each replica's view, keyed by node name.
	Hops map[string]*SpanHop `json:"replicas,omitempty"`
}

type connSpans struct {
	spans   []*Span
	lastSeq Seq
	started bool
	rexmit  uint64

	depIdx   map[string]int
	chainIdx map[string]int
	ackIdx   int
}

func (sc *SpanCollector) conn(k spanConnKey) *connSpans {
	cs := sc.conns[k]
	if cs == nil {
		cs = &connSpans{depIdx: make(map[string]int), chainIdx: make(map[string]int)}
		sc.conns[k] = cs
		sc.order = append(sc.order, k)
	}
	return cs
}

func (sc *SpanCollector) observe(e obs.Event) {
	switch e.Kind {
	case obs.KindMulticast:
		// Only data-bearing TCP segments carry a Seq (the redirector leaves
		// it unset for pure ACKs and non-TCP traffic).
		if e.Seq == 0 || e.Conn == (Endpoint{}) {
			return
		}
		cs := sc.conn(spanConnKey{service: e.Service, client: e.Conn})
		seq := Seq(e.Seq)
		if cs.started && seq.LEQ(cs.lastSeq) {
			cs.rexmit++
			return
		}
		cs.lastSeq = seq
		cs.started = true
		if len(cs.spans) >= maxSpansPerConn {
			sc.droppedSpans++
			return
		}
		cs.spans = append(cs.spans, &Span{
			Seq: e.Seq, MulticastAt: e.Time, Hops: make(map[string]*SpanHop),
		})

	case obs.KindDeposit:
		cs := sc.conns[spanConnKey{service: e.Service, client: e.Conn}]
		if cs == nil || e.Seq == 0 {
			return
		}
		cursor := Seq(e.Seq)
		i := cs.depIdx[e.Node]
		for ; i < len(cs.spans); i++ {
			s := cs.spans[i]
			if !Seq(s.Seq).LT(cursor) {
				break
			}
			h := hop(s, e.Node)
			if h.DepositAt == 0 {
				h.DepositAt = e.Time
				sc.depositStallMS.Observe(ms(e.Time - s.MulticastAt))
			}
		}
		cs.depIdx[e.Node] = i

	case obs.KindChainRecv:
		cs := sc.conns[spanConnKey{service: e.Service, client: e.Conn}]
		if cs == nil || e.Ack == 0 {
			return
		}
		cursor := Seq(e.Ack)
		i := cs.chainIdx[e.Node]
		for ; i < len(cs.spans); i++ {
			s := cs.spans[i]
			if !Seq(s.Seq).LT(cursor) {
				break
			}
			h := hop(s, e.Node)
			if h.ChainArrivalAt == 0 {
				h.ChainArrivalAt = e.Time
				// Ack-chain lag per hop: time from the downstream deposit
				// that triggered this progress report (the latest other-node
				// deposit of the span not after now) to its arrival here.
				var dep time.Duration = -1
				for node, other := range s.Hops { //hydralint:nondeterministic max over hop deposit times, order-independent
					if node == e.Node || other.DepositAt == 0 || other.DepositAt > e.Time {
						continue
					}
					if other.DepositAt > dep {
						dep = other.DepositAt
					}
				}
				if dep >= 0 {
					sc.ackLagMS.Observe(ms(e.Time - dep))
				}
			}
		}
		cs.chainIdx[e.Node] = i

	case obs.KindAckProgress:
		// Only the client side of the connection matches: its local
		// endpoint is the span key's client and its remote is the service.
		cs := sc.conns[spanConnKey{service: e.Conn, client: e.Service}]
		if cs == nil || e.Seq == 0 {
			return
		}
		cursor := Seq(e.Seq)
		i := cs.ackIdx
		for ; i < len(cs.spans); i++ {
			s := cs.spans[i]
			if !Seq(s.Seq).LT(cursor) {
				break
			}
			if s.ClientAckAt == 0 {
				s.ClientAckAt = e.Time
			}
		}
		cs.ackIdx = i
	}
}

func hop(s *Span, node string) *SpanHop {
	h := s.Hops[node]
	if h == nil {
		h = &SpanHop{}
		s.Hops[node] = h
	}
	return h
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// SpanTimeline is one connection's spans, in multicast order.
type SpanTimeline struct {
	Service string `json:"service"`
	Client  string `json:"client"`
	// RetransmitMulticasts counts multicast fan-outs whose sequence number
	// did not advance (redirector copies of client retransmissions).
	RetransmitMulticasts uint64  `json:"retransmit_multicasts,omitempty"`
	Spans                []*Span `json:"spans"`
}

// Timelines returns every connection's spans, in first-seen order.
func (sc *SpanCollector) Timelines() []SpanTimeline {
	out := make([]SpanTimeline, 0, len(sc.order))
	for _, k := range sc.order {
		cs := sc.conns[k]
		out = append(out, SpanTimeline{
			Service: k.service.String(), Client: k.client.String(),
			RetransmitMulticasts: cs.rexmit, Spans: cs.spans,
		})
	}
	return out
}

// DroppedSpans counts data segments not spanned because a connection hit
// its span bound.
func (sc *SpanCollector) DroppedSpans() uint64 { return sc.droppedSpans }

// AckChainLag snapshots the per-hop acknowledgment-channel lag histogram
// (milliseconds): downstream deposit → chain-recv at the upstream replica.
func (sc *SpanCollector) AckChainLag() metrics.HistogramSnapshot {
	return sc.ackLagMS.Snapshot()
}

// DepositStall snapshots the deposit-stall histogram (milliseconds):
// redirector multicast → deposit at each replica. The chain tail's stall is
// pure propagation and processing; everyone else's additionally contains
// the inbound-atomicity wait for downstream acknowledgments.
func (sc *SpanCollector) DepositStall() metrics.HistogramSnapshot {
	return sc.depositStallMS.Snapshot()
}

type spanJSON struct {
	Timelines      []SpanTimeline            `json:"timelines"`
	AckChainLagMS  metrics.HistogramSnapshot `json:"ack_chain_lag_ms"`
	DepositStallMS metrics.HistogramSnapshot `json:"deposit_stall_ms"`
	DroppedSpans   uint64                    `json:"dropped_spans,omitempty"`
}

// WriteJSON writes every timeline plus the derived histograms as indented
// JSON (durations are nanoseconds of virtual time).
func (sc *SpanCollector) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spanJSON{
		Timelines:      sc.Timelines(),
		AckChainLagMS:  sc.AckChainLag(),
		DepositStallMS: sc.DepositStall(),
		DroppedSpans:   sc.droppedSpans,
	})
}
