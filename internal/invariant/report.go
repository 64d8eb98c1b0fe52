package invariant

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"hydranet/internal/obs"
)

// Violation is one forensic record: the violated rule, the virtual-clock
// instant, the offending connection and host, the expected and observed
// cursor values, and the triggering event verbatim.
type Violation struct {
	Rule    string        `json:"rule"`
	Time    time.Duration `json:"time"`
	Node    string        `json:"node,omitempty"`
	Service string        `json:"service,omitempty"`
	Conn    string        `json:"conn,omitempty"`
	Detail  string        `json:"detail"`
	Want    uint64        `json:"want,omitempty"`
	Got     uint64        `json:"got,omitempty"`
	Event   obs.Event     `json:"event"`
}

// String renders the violation for terminal output (cold path; the hot
// path stores only structured fields).
func (v Violation) String() string {
	s := fmt.Sprintf("%-12v %s: %s", v.Time, v.Rule, v.Detail)
	if v.Node != "" {
		s += fmt.Sprintf(" node=%s", v.Node)
	}
	if v.Service != "" {
		s += fmt.Sprintf(" service=%s", v.Service)
	}
	if v.Conn != "" {
		s += fmt.Sprintf(" conn=%s", v.Conn)
	}
	if v.Want != 0 || v.Got != 0 {
		s += fmt.Sprintf(" want=%d got=%d", v.Want, v.Got)
	}
	return s
}

// RuleReport is one rule's evaluation census.
type RuleReport struct {
	Rule       string `json:"rule"`
	Checks     uint64 `json:"checks"`
	Violations uint64 `json:"violations"`
}

// KindCount is one event kind's observation count.
type KindCount struct {
	Kind  string `json:"kind"`
	Count uint64 `json:"count"`
}

// Report is a run's audit verdict. Every field is deterministic — no
// wall-clock facts — so reports from the same seed diff byte-identical.
type Report struct {
	Scenario          string       `json:"scenario,omitempty"`
	Clean             bool         `json:"clean"`
	Events            uint64       `json:"events"`
	Frames            uint64       `json:"frames"`
	FrameBytes        uint64       `json:"frame_bytes"`
	Checks            uint64       `json:"checks"`
	Rules             []RuleReport `json:"rules"`
	EventCounts       []KindCount  `json:"event_counts,omitempty"`
	QuiesceChecked    bool         `json:"quiesce_checked"`
	OutstandingFrames int          `json:"outstanding_frames"`
	Violations        []Violation  `json:"violations,omitempty"`
}

// TotalViolations sums violations across rules (recorded or not).
func (r Report) TotalViolations() uint64 {
	var total uint64
	for _, rr := range r.Rules {
		total += rr.Violations
	}
	return total
}

// report builds the deterministic audit report from current state.
func (m *Monitor) report() Report {
	r := Report{
		Scenario:          m.scenario,
		Clean:             m.Clean(),
		Events:            m.events,
		Checks:            m.Checks(),
		QuiesceChecked:    m.quiesceChecked,
		OutstandingFrames: m.outstandingEnd,
		Violations:        m.violations,
	}
	if m.census != nil {
		r.Frames, r.FrameBytes = m.census()
	}
	for i := 0; i < numRules; i++ {
		r.Rules = append(r.Rules, RuleReport{
			Rule:       ruleNames[i],
			Checks:     m.checks[i],
			Violations: m.failures[i],
		})
	}
	for _, k := range obs.Kinds() {
		if c := m.kindCounts[k]; c > 0 {
			r.EventCounts = append(r.EventCounts, KindCount{Kind: k.String(), Count: c})
		}
	}
	sort.Slice(r.EventCounts, func(i, j int) bool {
		return r.EventCounts[i].Kind < r.EventCounts[j].Kind
	})
	return r
}

// WriteJSON writes the report as indented JSON to path.
func (r Report) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
