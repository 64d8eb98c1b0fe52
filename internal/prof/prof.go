// Package prof defines the hydraprof profile schema: the serialized form of
// the scheduler's causal critical-path analysis (internal/sim.SchedProf) and
// the report `hydrascope profile` renders from it.
//
// The package is pure data and analysis: it does not import the simulator,
// so tooling (internal/scope, cmd/hydrascope) can load and diff profiles
// without dragging in the engine. The facade (hydranet.Instruments.Profile)
// assembles a Profile from the sim collector.
//
// Two kinds of fields coexist and tooling must keep them apart:
//
//   - Deterministic fields — event counts, critical-path depth, virtual
//     times. These are functions of the scenario alone and may be gated
//     exactly (hydrascope diff -tol 0).
//   - Wall-clock fields — wall_ns. It varies run to run and machine to
//     machine and is never gated.
package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// FormatVersion is the profile schema version; bump on incompatible change.
// Version 1 carried the parallel core's per-domain window accounting.
const FormatVersion = 2

// Edge is one sampled parent→child scheduling edge (virtual nanoseconds).
type Edge struct {
	ParentAtNs int64  `json:"parent_at_ns"`
	ChildAtNs  int64  `json:"child_at_ns"`
	Depth      uint64 `json:"depth"`
}

// CriticalPath is the causal-chain analysis: the longest parent→child chain
// among fired events, which bounds what any parallel execution could gain at
// unit event cost.
type CriticalPath struct {
	// Depth is the longest causal chain among fired events (deterministic).
	Depth uint64 `json:"depth"`
	// DeepestAtNs is the virtual instant the deepest event fired.
	DeepestAtNs int64 `json:"deepest_at_ns"`
	// SampleEvery is the edge sampling stride.
	SampleEvery uint64 `json:"sample_every"`
	// EdgesSeen / EdgesRecorded count scheduling edges considered/sampled.
	EdgesSeen     uint64 `json:"edges_seen"`
	EdgesRecorded uint64 `json:"edges_recorded"`
	// Edges holds the retained samples (bounded; diagnostic only).
	Edges []Edge `json:"edges,omitempty"`
}

// Profile is one run's complete hydraprof output.
type Profile struct {
	ProfVersion int    `json:"prof_version"`
	Scenario    string `json:"scenario,omitempty"`
	Seed        int64  `json:"seed"`

	VirtualNs int64  `json:"virtual_ns"` // virtual time covered
	WallNs    int64  `json:"wall_ns"`    // wall time covered (not gated)
	Events    uint64 `json:"events"`     // events fired while attached

	CriticalPath CriticalPath `json:"critical_path"`
}

// IdealSpeedup is the critical-path bound: with unit event cost, events /
// depth is the best any schedule can do. 1 when nothing fired.
func (p *Profile) IdealSpeedup() float64 {
	if p.CriticalPath.Depth == 0 || p.Events == 0 {
		return 1
	}
	return float64(p.Events) / float64(p.CriticalPath.Depth)
}

// Write serializes p as indented JSON.
func Write(w io.Writer, p *Profile) error {
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteFile writes p to path.
func WriteFile(path string, p *Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = Write(f, p)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("prof: write %s: %w", path, err)
	}
	return nil
}

// Load parses a profile, rejecting non-profile JSON and every schema version
// but the current one.
func Load(r io.Reader) (*Profile, error) {
	var p Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("prof: parse: %w", err)
	}
	if p.ProfVersion == 0 {
		return nil, fmt.Errorf("prof: not a hydraprof profile (no prof_version)")
	}
	if p.ProfVersion != FormatVersion {
		return nil, fmt.Errorf("prof: profile has prof_version %d, this build reads only version %d", p.ProfVersion, FormatVersion)
	}
	return &p, nil
}

// LoadFile loads a profile from path.
func LoadFile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("prof: %s: %w", path, err)
	}
	return p, nil
}
