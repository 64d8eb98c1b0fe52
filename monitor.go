package hydranet

import "hydranet/internal/invariant"

// Monitor is the online protocol-invariant checker (internal/invariant)
// re-exported at the facade: a bus subscriber that continuously audits the
// paper's safety properties — exactly-once delivery, cursor monotonicity,
// the ft-TCP gate, chain-ack sanity, single-primary membership, frame
// conservation — and records forensic bundles on violation.
type Monitor = invariant.Monitor

// AuditReport is a run's deterministic audit verdict.
type AuditReport = invariant.Report

// MonitorConfig parameterizes StartMonitor.
type MonitorConfig struct {
	// Scenario labels the audit report.
	Scenario string
}

// StartMonitor attaches an invariant monitor to the network's event bus,
// and teaches it every host's address: the redirector daemon knows chain
// members by address, the stacks emit under node names. Its frame census
// is what the links transmit from now on, read off their counters at
// Finish. Detached (never called), the monitor costs nothing: emit sites
// stay behind Bus.Enabled.
//
// Use Instruments.Invariants: Instrument attaches the monitor at the one
// point where it sees the registrations. StartMonitor, FinishAudit and
// MonitorConfig stay exported only for bench/, which compiles against them
// (DESIGN.md §10 is the one attach surface).
func (n *Net) StartMonitor(cfg MonitorConfig) *Monitor {
	frames0, bytes0 := n.linkTotals()
	m := invariant.New(invariant.Config{
		Scenario:    cfg.Scenario,
		Outstanding: n.fab.Pool().Outstanding,
		Census: func() (uint64, uint64) {
			frames, bytes := n.linkTotals()
			return frames - frames0, bytes - bytes0
		},
	})
	for _, h := range n.hosts {
		m.MapAddr(h.addr, h.name)
	}
	m.Attach(&n.bus)
	return m
}

// linkTotals sums the frames and bytes every link has transmitted, both
// directions.
func (n *Net) linkTotals() (frames, bytes uint64) {
	for _, li := range n.links {
		tx, _, _ := li.underlying.Stats()
		b := li.underlying.TxBytes()
		frames += tx[0] + tx[1]
		bytes += b[0] + b[1]
	}
	return frames, bytes
}

// FinishAudit runs the monitor's end-of-run conservation check and returns
// the audit report, as Session.Finish does: the frame-conservation rule is
// only decided when the simulation is quiescent (frames still in flight are
// not leaks).
func (n *Net) FinishAudit(m *Monitor) AuditReport {
	return m.Finish(n.sched.Pending() == 0)
}
