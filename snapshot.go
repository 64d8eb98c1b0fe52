package hydranet

import (
	"encoding/json"
	"reflect"
	"time"

	"hydranet/internal/core"
	"hydranet/internal/ipv4"
	"hydranet/internal/metrics"
	"hydranet/internal/obs"
	"hydranet/internal/redirector"
	"hydranet/internal/rmp"
	"hydranet/internal/tcp"
)

// Observability re-exports: the event bus lives in internal/obs; user code
// subscribes through these aliases.
type (
	// Event is one structured observability event on the bus.
	Event = obs.Event
	// EventKind classifies events (see the Kind* constants).
	EventKind = obs.Kind
)

// Event kinds, re-exported for subscriber filters.
const (
	KindPacketLoss     = obs.KindPacketLoss
	KindQueueDrop      = obs.KindQueueDrop
	KindMTUDrop        = obs.KindMTUDrop
	KindNodeCrash      = obs.KindNodeCrash
	KindNodeRestart    = obs.KindNodeRestart
	KindRetransmit     = obs.KindRetransmit
	KindRTO            = obs.KindRTO
	KindFastRetransmit = obs.KindFastRetransmit
	KindDeposit        = obs.KindDeposit
	KindAckProgress    = obs.KindAckProgress
	KindMulticast      = obs.KindMulticast
	KindRedirect       = obs.KindRedirect
	KindTunnelError    = obs.KindTunnelError
	KindChainSend      = obs.KindChainSend
	KindChainRecv      = obs.KindChainRecv
	KindSuspicion      = obs.KindSuspicion
	KindPromotion      = obs.KindPromotion
	KindDemotion       = obs.KindDemotion
	KindRegistration   = obs.KindRegistration
	KindReconfig       = obs.KindReconfig
	KindRecommission   = obs.KindRecommission
	KindClientDeliver  = obs.KindClientDeliver
)

// Snapshot is a net-wide aggregation of every component counter at one
// virtual instant: per-host fabric/IP/TCP/ft-TCP counters, per-link
// per-direction counters, and per-redirector table plus management-daemon
// counters. Each layer's counters are that layer's own Stats record. It is
// JSON-serializable; Diff produces interval rates.
type Snapshot struct {
	Time        time.Duration        `json:"time"`
	Hosts       []HostSnapshot       `json:"hosts"`
	Links       []LinkSnapshot       `json:"links"`
	Redirectors []RedirectorSnapshot `json:"redirectors,omitempty"`
}

// HostSnapshot aggregates one host's counters across every layer.
type HostSnapshot struct {
	Name  string `json:"name"`
	Alive bool   `json:"alive"`
	// ProcBacklog is a gauge, not a counter: how far the host's serial CPU
	// is running behind frame arrival at snapshot time.
	ProcBacklog time.Duration   `json:"proc_backlog_ns,omitempty"`
	Frames      FrameCounters   `json:"frames"`
	IP          ipv4.StackStats `json:"ip"`
	TCP         struct {
		tcp.StackStats
		Conns int `json:"conns"` // live connections, a gauge
	} `json:"tcp"`
	// Conns sums the tcp.ConnStats of every connection the stack has
	// carried, live and closed.
	Conns   tcp.ConnStats              `json:"conn_totals"`
	RTT     *metrics.HistogramSnapshot `json:"rtt_ms,omitempty"`
	Manager *core.Stats                `json:"manager,omitempty"`
}

// FrameCounters are netsim node counters.
type FrameCounters struct {
	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
	Dropped  uint64 `json:"dropped"`
}

// LinkSnapshot captures one duplex link, named by its endpoints.
type LinkSnapshot struct {
	A  string          `json:"a"`
	B  string          `json:"b"`
	AB LinkDirCounters `json:"a_to_b"`
	BA LinkDirCounters `json:"b_to_a"`
}

// LinkDirCounters are one direction of a link (sending-side indexed).
type LinkDirCounters struct {
	TxFrames  uint64 `json:"tx_frames"`
	Lost      uint64 `json:"lost"`
	QueueDrop uint64 `json:"queue_drop"`
}

// RedirectorSnapshot captures one redirector's table and (if running)
// management-daemon counters.
type RedirectorSnapshot struct {
	Name  string                     `json:"name"`
	Table redirector.Stats           `json:"table"`
	Mgmt  *rmp.RedirectorDaemonStats `json:"mgmt,omitempty"`
}

// JSON renders the snapshot indented, for -stats-json files.
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// Diff returns the interval snapshot s − prev. Every uint64 field is a
// cumulative counter and is subtracted, a histogram diffs itself, and every
// other field (names, Alive, TCP.Conns, ProcBacklog) is s's; Time
// becomes the interval. Hosts, links and redirectors are matched by index,
// because a Net only appends them; an entry past prev's end passes through
// unchanged. A nil pointer in prev counts as zero. Neither input is
// modified.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := s
	diffInto(reflect.ValueOf(&out).Elem(), reflect.ValueOf(&prev).Elem())
	out.Time = s.Time - prev.Time
	return out
}

var histogramType = reflect.TypeFor[metrics.HistogramSnapshot]()

// diffInto turns cur, a copy of a current value, into cur − prev, walking
// the schema. Each slice and pointee it descends into is copied first, so
// the snapshot cur was copied from is never written. prev is addressable.
func diffInto(cur, prev reflect.Value) {
	switch cur.Kind() {
	case reflect.Uint64:
		cur.SetUint(cur.Uint() - prev.Uint())
	case reflect.Pointer:
		if cur.IsNil() {
			return
		}
		p := reflect.New(cur.Type().Elem())
		p.Elem().Set(cur.Elem())
		cur.Set(p)
		if prev.IsNil() {
			prev = reflect.New(cur.Type().Elem())
		}
		diffInto(p.Elem(), prev.Elem())
	case reflect.Slice:
		if cur.Len() == 0 {
			return
		}
		c := reflect.MakeSlice(cur.Type(), cur.Len(), cur.Len())
		reflect.Copy(c, cur)
		cur.Set(c)
		for i := range min(c.Len(), prev.Len()) {
			diffInto(c.Index(i), prev.Index(i))
		}
	case reflect.Struct:
		if cur.Type() == histogramType {
			h := cur.Addr().Interface().(*metrics.HistogramSnapshot)
			*h = h.Diff(*prev.Addr().Interface().(*metrics.HistogramSnapshot))
			return
		}
		for i := range cur.NumField() {
			diffInto(cur.Field(i), prev.Field(i))
		}
	}
}

// Snapshot aggregates every host, link, redirector and manager counter into
// one JSON-serializable structure at the current virtual instant. Take one
// snapshot per measurement point; Snapshot.Diff turns two into interval
// rates.
func (n *Net) Snapshot() Snapshot {
	// The fail-over benchmark takes a snapshot per scenario: on a net within
	// the inline sizes it is two objects, the store and the RTT buckets.
	st := new(snapshotStore)
	snap := Snapshot{
		Time:        n.Now(),
		Hosts:       carve(st.hosts[:], len(n.hosts)),
		Links:       carve(st.links[:], len(n.links)),
		Redirectors: carve(st.redirectors[:], len(n.redirectors)),
	}
	var nRTT, nBuckets, nMgr int
	for _, h := range n.hosts {
		if rtt := h.tcp.RTTHistogram(); rtt.Count() > 0 {
			nRTT, nBuckets = nRTT+1, nBuckets+rtt.NumBuckets()
		}
		if h.mgr != nil {
			nMgr++
		}
	}
	rtts, mgrs := carve(st.rtts[:], nRTT)[:0], carve(st.mgrs[:], nMgr)[:0]
	buckets := make([]metrics.HistogramBucket, nBuckets)
	// Every node appears under Hosts — redirector nodes too, since their
	// frame and IP (forwarding) counters live there; the Redirectors section
	// adds the table and management counters on top.
	for i, h := range n.hosts {
		hs := &snap.Hosts[i]
		*hs = n.hostSnapshot(h)
		if rtt := h.tcp.RTTHistogram(); rtt.Count() > 0 {
			rtts = append(rtts, rtt.SnapshotIn(buckets))
			hs.RTT = &rtts[len(rtts)-1]
			buckets = buckets[len(hs.RTT.Buckets):]
		}
		if h.mgr != nil {
			mgrs = append(mgrs, h.mgr.Stats())
			hs.Manager = &mgrs[len(mgrs)-1]
		}
	}
	for i, li := range n.links {
		tx, lost, qd := li.underlying.Stats()
		snap.Links[i] = LinkSnapshot{
			A:  li.a.name,
			B:  li.b.name,
			AB: LinkDirCounters{TxFrames: tx[0], Lost: lost[0], QueueDrop: qd[0]},
			BA: LinkDirCounters{TxFrames: tx[1], Lost: lost[1], QueueDrop: qd[1]},
		}
	}
	mgmt := carve(st.mgmt[:], len(n.redirectors))
	for i, r := range n.redirectors {
		rs := RedirectorSnapshot{Name: r.Host.name, Table: r.rd.Stats()}
		if r.dmn != nil {
			mgmt[i] = r.dmn.Stats()
			rs.Mgmt = &mgmt[i]
		}
		snap.Redirectors[i] = rs
	}
	return snap
}

// snapshotStore backs a Snapshot of a net within the inline sizes; each
// section of a larger net is made on its own (carve).
type snapshotStore struct {
	hosts       [inlineHosts]HostSnapshot
	links       [inlineLinks]LinkSnapshot
	redirectors [inlineRedirectors]RedirectorSnapshot
	rtts        [inlineHosts]metrics.HistogramSnapshot
	mgrs        [inlineHosts]core.Stats
	mgmt        [inlineRedirectors]rmp.RedirectorDaemonStats
}

// hostSnapshot is a host's own counters; Snapshot adds its RTT histogram and
// manager stats.
func (n *Net) hostSnapshot(h *Host) HostSnapshot {
	sent, recv, drop := h.node.Stats()
	hs := HostSnapshot{
		Name:        h.name,
		Alive:       h.node.Alive(),
		ProcBacklog: h.node.ProcBacklog(),
		Frames:      FrameCounters{Sent: sent, Received: recv, Dropped: drop},
		IP:          h.ip.Stats(),
		Conns:       h.tcp.ConnTotals(),
	}
	hs.TCP.StackStats, hs.TCP.Conns = h.tcp.Stats(), h.tcp.NumConns()
	return hs
}
