package prof

import (
	"bytes"
	"strings"
	"testing"
)

// sampleProfile is a small, fully deterministic profile.
func sampleProfile() *Profile {
	return &Profile{
		ProfVersion: FormatVersion,
		Scenario:    "golden",
		Seed:        11,
		VirtualNs:   2_000_000,
		WallNs:      90_000,
		Events:      120,
		CriticalPath: CriticalPath{
			Depth: 30, DeepestAtNs: 2_000_000,
			SampleEvery: 4, EdgesSeen: 119, EdgesRecorded: 29,
			Edges: []Edge{
				{ParentAtNs: 1000, ChildAtNs: 51000, Depth: 2},
			},
		},
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	p := sampleProfile()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if q.Events != p.Events || q.CriticalPath.Depth != p.CriticalPath.Depth ||
		len(q.CriticalPath.Edges) != 1 || q.CriticalPath.Edges[0] != p.CriticalPath.Edges[0] {
		t.Fatalf("round trip mangled the profile: %+v", q)
	}
}

func TestLoadRejectsForeignJSON(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"version":1,"entries":[{"case":"x"}]}`)); err == nil {
		t.Fatal("Load accepted a bench file")
	}
	if _, err := Load(strings.NewReader(`{"prof_version":99}`)); err == nil {
		t.Fatal("Load accepted a future version")
	}
	// A version-1 profile carried the parallel core's window accounting; it
	// must be refused by number, not rendered with those sections missing.
	_, err := Load(strings.NewReader(`{"prof_version":1,"domains":3,"workers":2}`))
	if err == nil || !strings.Contains(err.Error(), "prof_version 1") {
		t.Fatalf("Load of a version-1 profile: %v, want an error naming prof_version 1", err)
	}
}

func TestSpeedupBounds(t *testing.T) {
	p := sampleProfile()
	if got := p.IdealSpeedup(); got != 4 { // 120 events / depth 30
		t.Fatalf("IdealSpeedup = %v, want 4", got)
	}
	empty := &Profile{ProfVersion: FormatVersion}
	if empty.IdealSpeedup() != 1 {
		t.Fatal("empty profile's bound should be 1")
	}
}

func TestReportMentionsEverySection(t *testing.T) {
	var buf bytes.Buffer
	if err := Report(&buf, sampleProfile()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"hydraprof profile: golden", "seed 11", "events 120", "critical path",
		"depth 30 of 120", "ideal speedup", "4.00x", "edge samples",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
