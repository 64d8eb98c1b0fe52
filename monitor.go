package hydranet

import (
	"hydranet/internal/invariant"
	"hydranet/internal/netsim"
)

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

// StartMonitor attaches an invariant monitor to the network's event bus
// and frame tap, and teaches it every host's address: the redirector daemon
// knows chain members by address, the stacks emit under node names.
// Detached (never called), the monitor costs nothing: emit sites stay behind
// Bus.Enabled.
//
// Use Instruments.Invariants: Instrument attaches the monitor at the one
// point where it sees the registrations. StartMonitor, FinishAudit and
// MonitorConfig stay exported only for bench/, which compiles against them
// (DESIGN.md §11 is the one attach surface).
func (n *Net) StartMonitor(cfg MonitorConfig) *Monitor {
	m := invariant.New(invariant.Config{
		Scenario:    cfg.Scenario,
		Outstanding: n.fab.Pool().Outstanding,
	})
	for _, h := range n.hosts {
		m.MapAddr(h.addr, h.name)
	}
	m.Attach(n.bus)
	n.addFrameTap(func(from, to *netsim.Node, data []byte) {
		m.NoteFrame(len(data))
	})
	return m
}

// FinishAudit runs the monitor's end-of-run conservation check and returns
// the audit report, as Session.Finish does: the frame-conservation rule is
// only decided when the simulation is quiescent (frames still in flight are
// not leaks).
func (n *Net) FinishAudit(m *Monitor) AuditReport {
	return m.Finish(n.sched.Pending() == 0)
}
