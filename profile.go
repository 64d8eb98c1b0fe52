package hydranet

import (
	"time"

	"hydranet/internal/prof"
	"hydranet/internal/sim"
)

// hydraprof facade: Instruments.Profile attaches the scheduler's causal
// critical-path collector and assembles its state into a prof.Profile for
// `hydrascope profile` and CI diffing.
//
// Attaching a profiler changes no simulation observable: pcap, series and
// event counts stay byte-identical (pinned by TestProfileKeepsOutputsIdentical),
// and a detached net pays nothing (TestProfZeroCostWhenDetached).

// Sampled-edge ring capacity, and how many scheduling edges pass per sample.
const (
	profEdgeRing  = 256
	profEdgeEvery = 64
)

// profiler is an attached hydraprof session. Snapshot/WriteFile read it
// from outside an event; Stop detaches the collector, after which the last
// collected state remains readable.
type profiler struct {
	net      *Net
	scenario string
	sprof    *sim.SchedProf
	start    time.Time
	events0  uint64 // events fired before attach
	stopped  bool
}

// startProfile attaches the profiler; the event count and causal depth
// baselines reset here, so the profile covers what runs from now on.
func (n *Net) startProfile(scenario string) *profiler {
	p := &profiler{
		net:      n,
		scenario: scenario,
		sprof:    sim.NewSchedProf(profEdgeRing, profEdgeEvery),
		events0:  n.EventsFired(),
	}
	n.sched.EnableProfile(p.sprof)
	//hydralint:nondeterministic wall-clock profiling baseline: reported, never fed back into the simulation
	p.start = time.Now()
	return p
}

// Stop detaches the collector, restoring the zero-cost hot paths. The
// profiler's collected state stays readable via Snapshot/WriteFile.
func (p *profiler) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.net.sched.EnableProfile(nil)
}

// Snapshot assembles the profile collected so far.
func (p *profiler) Snapshot() *prof.Profile {
	n := p.net
	out := &prof.Profile{
		ProfVersion: prof.FormatVersion,
		Scenario:    p.scenario,
		Seed:        n.cfg.Seed,
		VirtualNs:   int64(n.Now()),
		Events:      n.EventsFired() - p.events0,
	}
	//hydralint:nondeterministic wall-clock profiling measurement: reported, never fed back into the simulation
	out.WallNs = time.Now().Sub(p.start).Nanoseconds()

	sp := p.sprof
	cp := &out.CriticalPath
	cp.Depth = sp.MaxDepth()
	cp.DeepestAtNs = int64(sp.DeepestAt())
	cp.SampleEvery = sp.SampleEvery()
	cp.EdgesSeen = sp.EdgesSeen()
	cp.EdgesRecorded = sp.EdgesRecorded()
	for _, e := range sp.Edges(nil) {
		cp.Edges = append(cp.Edges, prof.Edge{
			ParentAtNs: int64(e.ParentAt),
			ChildAtNs:  int64(e.ChildAt),
			Depth:      e.Depth,
		})
	}
	return out
}

// WriteFile snapshots the profile and writes it as hydraprof JSON.
func (p *profiler) WriteFile(path string) error {
	return prof.WriteFile(path, p.Snapshot())
}
