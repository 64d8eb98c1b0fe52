package scope

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"hydranet/internal/obs"
	"hydranet/internal/series"
)

// buildSet makes a small set with one counter and one gauge.
func buildSet(counterVals, gaugeVals []float64) *series.Set {
	set := series.NewSet()
	c := set.Counter("host.s0.retransmits", "segments")
	g := set.Gauge("link.a-b.queue_ab", "bytes")
	for i, v := range counterVals {
		c.Observe(time.Duration(i+1)*100*time.Millisecond, v)
	}
	for i, v := range gaugeVals {
		g.Observe(time.Duration(i+1)*100*time.Millisecond, v)
	}
	return set
}

func exportJSONL(t *testing.T, meta series.Meta, set *series.Set) *Run {
	t.Helper()
	var buf bytes.Buffer
	if err := series.WriteJSONL(&buf, meta, set); err != nil {
		t.Fatal(err)
	}
	run, err := LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestLoadJSONLRoundTrip(t *testing.T) {
	fo := &obs.FailoverReport{
		CrashAt: 400 * time.Millisecond, SuspicionAt: 2 * time.Second,
		PromotionAt: 2100 * time.Millisecond, Detection: 1600 * time.Millisecond,
	}
	meta := series.Meta{Every: 100 * time.Millisecond, Ticks: 3, Seed: 9, Failover: fo}
	run := exportJSONL(t, meta, buildSet([]float64{0, 1, 2}, []float64{10, 20, 30}))
	if run.Meta.Seed != 9 || run.Meta.Every != 100*time.Millisecond {
		t.Fatalf("meta=%+v", run.Meta)
	}
	if run.Meta.Failover == nil || run.Meta.Failover.Detection != 1600*time.Millisecond {
		t.Fatalf("failover=%+v", run.Meta.Failover)
	}
	c := run.Get("host.s0.retransmits")
	if c == nil || c.Kind != "counter" || c.Total != 3 || len(c.Points) != 3 {
		t.Fatalf("counter=%+v", c)
	}
	g := run.Get("link.a-b.queue_ab")
	if g == nil || g.Mean != 20 || g.Max != 30 {
		t.Fatalf("gauge=%+v", g)
	}
}

func TestDiffRunsCleanOnIdentical(t *testing.T) {
	meta := series.Meta{Every: 100 * time.Millisecond, Ticks: 3}
	a := exportJSONL(t, meta, buildSet([]float64{0, 1, 2}, []float64{10, 20, 30}))
	b := exportJSONL(t, meta, buildSet([]float64{0, 1, 2}, []float64{10, 20, 30}))
	if f := DiffRuns(a, b, 0.001); len(f) != 0 {
		t.Fatalf("identical runs produced findings: %v", f)
	}
}

func TestDiffRunsFindsRegressions(t *testing.T) {
	meta := series.Meta{Every: 100 * time.Millisecond, Ticks: 3}
	a := exportJSONL(t, meta, buildSet([]float64{0, 1, 2}, []float64{10, 20, 30}))
	b := exportJSONL(t, meta, buildSet([]float64{0, 1, 8}, []float64{10, 20, 30}))
	f := DiffRuns(a, b, 0.05)
	if len(f) != 1 || f[0].Series != "host.s0.retransmits" || f[0].Field != "total" {
		t.Fatalf("findings=%v", f)
	}
	// A series missing from one side is always a finding.
	extra := series.NewSet()
	extra.Counter("host.s9.retransmits", "segments").Observe(time.Second, 1)
	c := exportJSONL(t, meta, extra)
	found := false
	for _, fd := range DiffRuns(a, c, 0.05) {
		if fd.Field == "presence" {
			found = true
		}
	}
	if !found {
		t.Fatal("missing-series regression not reported")
	}
	// Failover phase drift is a finding.
	metaF := meta
	metaF.Failover = &obs.FailoverReport{CrashAt: time.Second, Detection: 2 * time.Second}
	metaG := meta
	metaG.Failover = &obs.FailoverReport{CrashAt: time.Second, Detection: 4 * time.Second}
	fa := exportJSONL(t, metaF, buildSet([]float64{1}, nil))
	fb := exportJSONL(t, metaG, buildSet([]float64{1}, nil))
	f = DiffRuns(fa, fb, 0.05)
	if len(f) != 1 || f[0].Series != "failover" || f[0].Field != "detection" {
		t.Fatalf("failover findings=%v", f)
	}
}

// reportInput is a run header with a fail-over timeline, a counter, a gauge
// and a health verdict: every section WriteReport renders.
func reportInput() (series.Meta, *series.Set) {
	meta := series.Meta{
		Every: 100 * time.Millisecond, Ticks: 3, Seed: 1,
		Failover: &obs.FailoverReport{
			CrashAt: 150 * time.Millisecond, SuspicionAt: 250 * time.Millisecond,
			PromotionAt: 260 * time.Millisecond,
			Detection:   100 * time.Millisecond, Reconfiguration: 10 * time.Millisecond,
		},
	}
	set := buildSet([]float64{0, 5, 1}, []float64{10, 20, 30})
	set.Gauge("health.s1", "verdict").Observe(200*time.Millisecond, 1)
	return meta, set
}

func TestWriteReport(t *testing.T) {
	meta, set := reportInput()
	run := exportJSONL(t, meta, set)
	var buf bytes.Buffer
	if err := WriteReport(&buf, run); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"failover timeline", "detection", "pre-crash", "recovery",
		"host.s0.retransmits", "replica health", "degraded",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// FuzzLoadRun: whatever LoadRun accepts, the report and a self-diff render
// without panicking.
func FuzzLoadRun(f *testing.F) {
	meta, set := reportInput()
	var buf bytes.Buffer
	series.WriteJSONL(&buf, meta, set)
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if run, err := LoadRun(bytes.NewReader(raw)); err == nil {
			WriteReport(io.Discard, run)
			DiffRuns(run, run, 0)
		}
	})
}
