package hydranet

import (
	"time"

	"hydranet/internal/prof"
	"hydranet/internal/sim"
)

// hydraprof facade: Net.StartProfile attaches the scheduler's causal
// critical-path collector and assembles its state into a prof.Profile for
// `hydrascope profile` and CI diffing.
//
// Attaching a profiler changes no simulation observable: pcap, series and
// event counts stay byte-identical (pinned by TestProfileKeepsOutputsIdentical),
// and a detached net pays nothing (TestProfZeroCostWhenDetached).

// ProfileConfig configures Net.StartProfile. The zero value is sensible.
type ProfileConfig struct {
	// Scenario labels the profile (free text, e.g. "figure4 ft-1024").
	Scenario string
	// EdgeRing is the sampled-edge ring capacity (default 256).
	EdgeRing int
	// EdgeEvery samples every Nth scheduling edge (default 64).
	EdgeEvery int
}

// Profiler is an attached hydraprof session. Snapshot/WriteFile may be
// called repeatedly between runs; Stop detaches the collector, after which
// the last collected state remains readable.
type Profiler struct {
	net     *Net
	cfg     ProfileConfig
	sprof   *sim.SchedProf
	start   time.Time
	events0 uint64 // events fired before attach
	stopped bool
}

// StartProfile attaches the profiler. Call it between runs, typically right
// before the measured traffic: the causal depth baseline resets at attach.
func (n *Net) StartProfile(cfg ProfileConfig) *Profiler {
	if cfg.EdgeRing <= 0 {
		cfg.EdgeRing = 256
	}
	if cfg.EdgeEvery <= 0 {
		cfg.EdgeEvery = 64
	}
	if n.profiler != nil {
		n.profiler.Stop()
	}
	p := &Profiler{
		net:     n,
		cfg:     cfg,
		sprof:   sim.NewSchedProf(cfg.EdgeRing, cfg.EdgeEvery),
		events0: n.EventsFired(),
	}
	n.sched.EnableProfile(p.sprof)
	n.profiler = p
	//hydralint:nondeterministic wall-clock profiling baseline: reported, never fed back into the simulation
	p.start = time.Now()
	return p
}

// Stop detaches the collector, restoring the zero-cost hot paths. The
// profiler's collected state stays readable via Snapshot/WriteFile.
func (p *Profiler) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	n := p.net
	n.sched.EnableProfile(nil)
	if n.profiler == p {
		n.profiler = nil
	}
}

// Snapshot assembles the profile collected so far. Call it between runs.
func (p *Profiler) Snapshot() *prof.Profile {
	n := p.net
	out := &prof.Profile{
		ProfVersion: prof.FormatVersion,
		Scenario:    p.cfg.Scenario,
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
func (p *Profiler) WriteFile(path string) error {
	return prof.WriteFile(path, p.Snapshot())
}
