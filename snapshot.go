package hydranet

import (
	"hydranet/internal/obs"
)

// Observability re-exports: the event bus and snapshot types live in
// internal/obs; user code subscribes and aggregates through these aliases.
type (
	// Event is one structured observability event on the bus.
	Event = obs.Event
	// EventKind classifies events (see the Kind* constants).
	EventKind = obs.Kind
	// Snapshot is a net-wide aggregation of every component counter.
	Snapshot = obs.Snapshot
	// FailoverReport is the paper's Table-2 fail-over decomposition,
	// reconstructed from bus events (Summary.Failover).
	FailoverReport = obs.FailoverReport
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

// newFailoverProbe subscribes a fail-over probe to the net's bus.
func (n *Net) newFailoverProbe() *obs.FailoverProbe {
	return obs.NewFailoverProbe(n.bus)
}

// Snapshot aggregates every host, link, redirector and manager counter into
// one JSON-serializable structure at the current virtual instant. Take one
// snapshot per measurement point; Snapshot.Diff turns two into interval
// rates.
func (n *Net) Snapshot() Snapshot {
	snap := Snapshot{Time: n.Now()}
	// Every node appears under Hosts — redirector nodes too, since their
	// frame and IP (forwarding) counters live there; the Redirectors section
	// adds the table and management counters on top.
	for _, h := range n.hosts {
		snap.Hosts = append(snap.Hosts, n.hostSnapshot(h))
	}
	for _, li := range n.links {
		tx, lost, qd := li.underlying.Stats()
		snap.Links = append(snap.Links, obs.LinkSnapshot{
			A:  li.a.name,
			B:  li.b.name,
			AB: obs.LinkDirCounters{TxFrames: tx[0], Lost: lost[0], QueueDrop: qd[0]},
			BA: obs.LinkDirCounters{TxFrames: tx[1], Lost: lost[1], QueueDrop: qd[1]},
		})
	}
	for _, r := range n.redirectors {
		rs := obs.RedirectorSnapshot{
			Name:  r.Host.name,
			Table: obs.RedirectorCounters(r.rd.Stats()),
		}
		if r.dmn != nil {
			mg := obs.MgmtCounters(r.dmn.Stats())
			rs.Mgmt = &mg
		}
		snap.Redirectors = append(snap.Redirectors, rs)
	}
	return snap
}

func (n *Net) hostSnapshot(h *Host) obs.HostSnapshot {
	sent, recv, drop := h.node.Stats()
	tcps := h.tcp.Stats()
	hs := obs.HostSnapshot{
		Name:        h.name,
		Alive:       h.node.Alive(),
		ProcBacklog: h.node.ProcBacklog(),
		Frames:      obs.FrameCounters{Sent: sent, Received: recv, Dropped: drop},
		IP:          obs.IPCounters(h.ip.Stats()),
		TCP: obs.TCPCounters{
			SegsIn:      tcps.SegsIn,
			SegsOut:     tcps.SegsOut,
			BadSegments: tcps.BadSegments,
			RSTsSent:    tcps.RSTsSent,
			NoSocket:    tcps.NoSocket,
			Conns:       h.tcp.NumConns(),
		},
		Conns: obs.ConnCounters(h.tcp.ConnTotals()),
	}
	if rtt := h.tcp.RTTHistogram(); rtt.Count() > 0 {
		rs := rtt.Snapshot()
		hs.RTT = &rs
	}
	if h.mgr != nil {
		mc := obs.ManagerCounters(h.mgr.Stats())
		hs.Manager = &mc
	}
	return hs
}
