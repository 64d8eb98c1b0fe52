package scope

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hydranet/internal/invariant"
	"hydranet/internal/obs"
)

// sampleAudit builds a dirty report of the shape the monitor writes.
func sampleAudit() invariant.Report {
	return invariant.Report{
		Scenario: "unit scenario",
		Clean:    false,
		Events:   120, Frames: 40, FrameBytes: 60000, Checks: 90,
		Rules: []invariant.RuleReport{
			{Rule: invariant.RuleDeposit, Checks: 50, Violations: 1},
			{Rule: invariant.RuleGate, Checks: 40, Violations: 2},
		},
		EventCounts: []invariant.KindCount{
			{Kind: "deposit", Count: 50},
			{Kind: "ack-progress", Count: 40},
		},
		QuiesceChecked:    true,
		OutstandingFrames: 0,
		Violations: []invariant.Violation{{
			Rule: invariant.RuleDeposit, Time: 3 * time.Second, Node: "s0",
			Detail: "duplicate delivery", Want: 3100, Got: 2600,
			Event: obs.Event{Kind: obs.KindDeposit},
		}},
	}
}

func TestAuditFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.audit.json")
	if err := sampleAudit().WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	r, err := LoadAuditFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario != "unit scenario" || r.Clean || r.TotalViolations() != 3 {
		t.Fatalf("round-trip mangled report: %+v", r)
	}
	if len(r.Violations) != 1 || r.Violations[0].Rule != invariant.RuleDeposit {
		t.Fatalf("violations lost in round-trip: %+v", r.Violations)
	}
}

func TestLoadAuditFileRejectsOtherJSON(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(bench, []byte(`{"entries":[{"case":"x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAuditFile(bench); err == nil {
		t.Fatal("LoadAuditFile accepted a bench file")
	}
	if _, err := LoadAuditFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("LoadAuditFile accepted a missing file")
	}
}

func TestLoadAuditFileRejectsEmptyCensus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(path, []byte(`{"clean":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAuditFile(path); err == nil {
		t.Fatal("LoadAuditFile accepted a report with no rule census")
	}
}

func TestWriteAuditReport(t *testing.T) {
	r := sampleAudit()
	var buf bytes.Buffer
	if err := WriteAuditReport(&buf, &r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"unit scenario",
		"3 VIOLATION(S)",
		"90 checks over 120 events",
		"quiesce: checked",
		invariant.RuleGate,
		"ack-progress",
		"duplicate delivery",
		"... 2 further violation(s) counted but not retained",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("audit report missing %q:\n%s", want, out)
		}
	}

	r.Clean = true
	r.Rules = []invariant.RuleReport{{Rule: invariant.RuleDeposit, Checks: 50}}
	r.Violations = nil
	buf.Reset()
	if err := WriteAuditReport(&buf, &r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "verdict: CLEAN") {
		t.Fatalf("clean report missing verdict:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "forensic") {
		t.Fatalf("clean report should have no forensic section:\n%s", buf.String())
	}
}
