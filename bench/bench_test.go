package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors the keys of ../BENCHMARK.json the tests compare
// against the code.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsAtSmallScale runs every workload at 1/200 of its size: no
// operation may fail, and the result must carry exactly BENCHMARK.json's
// end-to-end metrics.
func TestWorkloadsAtSmallScale(t *testing.T) {
	file := readBenchmarkFile(t)
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(file.Workloads), len(workloads))
	}
	h := &harness{seed: 1, spans: newSpanRecorder()}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, file.Workloads[i].Name, w.name)
		}
		run := func(seed int64) repetition {
			inst := w.prepare(params{seed: seed, scale: 1.0 / 200, span: h.spans.start})
			inst.run()
			return repetition{setupS: 1, wallS: 1, mallocs: 1, out: inst.collect()}
		}
		rep := run(1)
		if rep.out.attempted == 0 || rep.out.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, rep.out.failed, rep.out.attempted, rep.out.failures)
		}
		res := h.summarizeReps(w, []repetition{rep, run(1)})
		if !res.Correct {
			t.Errorf("%s: %v", w.name, res.Problems)
		}
		if len(res.Metrics) != len(file.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", w.name, len(res.Metrics), len(file.EndToEnd))
		}
		for _, m := range file.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value == 0 || math.IsNaN(got.Value) {
				t.Errorf("%s: metric %s is %+v (present %v), want a non-zero value in %s", w.name, m.Name, got, ok, m.Unit)
			}
		}
		if other := digest(exact(run(2).out)); other == res.SimDigest {
			t.Errorf("%s: seeds 1 and 2 give the same sim_digest %s", w.name, other)
		}
	}
}

// TestMetricListsMatchBenchmarkFile keeps the code's metric definitions and
// BENCHMARK.json equal, name by name, in order.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	file := readBenchmarkFile(t)
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in the code", len(file.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := file.EndToEnd[i]
		better := "lower"
		if d.higher {
			better = "higher"
		}
		if m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound || m.Better != better {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
	}
	defs := perLayer()
	if len(file.PerLayer) != len(defs) || len(defs) > 128 {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in the code, at most 128 allowed", len(file.PerLayer), len(defs))
	}
	seen := map[string]bool{}
	for i, d := range defs {
		if m := file.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		if !metricName.MatchString(d.name) || seen[d.name] {
			t.Errorf("per_layer[%d]: name %q is malformed or repeated", i, d.name)
		}
		seen[d.name] = true
	}
}

// TestLedgerEmitsEveryOp runs the ledger at a thousandth of its batch size.
func TestLedgerEmitsEveryOp(t *testing.T) {
	got := runLedger(0.001, newSpanRecorder())
	for _, op := range ledgerOps {
		if ns, ok := got[op.name+".ns_op"]; !ok || ns <= 0 {
			t.Errorf("%s.ns_op = %v (present %v)", op.name, ns, ok)
		}
		if _, ok := got[op.name+".allocs_op"]; !ok {
			t.Errorf("%s.allocs_op missing", op.name)
		}
	}
	if len(got) != 2*len(ledgerOps) {
		t.Errorf("%d ledger metrics for %d ops", len(got), len(ledgerOps))
	}
}

// Protobuf encoding helpers for the synthetic profile.
func pbVarint(v uint64) []byte {
	var b []byte
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbField(num int, v uint64) []byte { return append(pbVarint(uint64(num)<<3), pbVarint(v)...) }

func pbBytes(num int, data []byte) []byte {
	out := append(pbVarint(uint64(num)<<3|2), pbVarint(uint64(len(data)))...)
	return append(out, data...)
}

func pbPacked(num int, vs ...uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = append(body, pbVarint(v)...)
	}
	return pbBytes(num, body)
}

// TestProfileAttribution decodes a hand-built profile: three samples whose
// leaves are a scheduler method (inlined into a netsim caller, so the
// location has two lines), a TCP function and the runtime's allocator.
func TestProfileAttribution(t *testing.T) {
	stringTable := []string{"", "hydranet/internal/sim.(*Scheduler).Step", "hydranet/internal/netsim.(*Link).transmit",
		"hydranet/internal/tcp.(*Conn).input", "runtime.mallocgc", "main.main"}
	var prof []byte
	line := func(fn uint64) []byte { return pbBytes(locationLine, pbField(lineFunction, fn)) }
	location := func(id uint64, fns ...uint64) []byte {
		body := pbField(locationID, id)
		for _, fn := range fns {
			body = append(body, line(fn)...)
		}
		return pbBytes(profileLocation, body)
	}
	sample := func(count uint64, locs ...uint64) []byte {
		return pbBytes(profileSample, append(pbPacked(sampleLocationID, locs...), pbPacked(sampleValue, count, count*10_000_000)...))
	}
	prof = append(prof, sample(5, 1, 4)...)
	prof = append(prof, sample(3, 2, 4)...)
	// Unpacked repeated fields are legal too.
	prof = append(prof, pbBytes(profileSample, append(append(pbField(sampleLocationID, 3), pbField(sampleLocationID, 4)...), pbField(sampleValue, 2)...))...)
	prof = append(prof, location(1, 1, 2)...) // Step inlined into transmit: the leaf is Step
	prof = append(prof, location(2, 3)...)
	prof = append(prof, location(3, 4)...)
	prof = append(prof, location(4, 5)...)
	for id := uint64(1); id <= 5; id++ {
		prof = append(prof, pbBytes(profileFunction, append(pbField(functionID, id), pbField(functionName, id)...))...)
	}
	for _, s := range stringTable {
		prof = append(prof, pbBytes(profileStringTable, []byte(s))...)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	leaves, err := leafSamples(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares, total := cpuShares(leaves)
	if total != 10 {
		t.Fatalf("%d samples, want 10 (leaves %v)", total, leaves)
	}
	want := map[string]float64{"sim": 0.5, "tcp": 0.3, "runtime": 0.2, "netsim": 0, "other": 0}
	for layer, share := range want {
		if shares[layer] != share {
			t.Errorf("%s.cpu_share = %v, want %v (leaves %v)", layer, shares[layer], share, leaves)
		}
	}
	if len(shares) != len(cpuLayers) {
		t.Errorf("%d layers reported, want %d", len(shares), len(cpuLayers))
	}
	if _, err := leafSamples(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hydranet/internal/redirector.(*Redirector).intercept": "redirector",
		"hydranet/internal/capture.(*Writer).WriteFrame":       "obs",
		"hydranet/internal/ttcp.Transmit.func1":                "other",
		"hydranet.(*Net).RunFor":                               "other",
		"runtime.memmove":                                      "runtime",
		"internal/bytealg.IndexByte":                           "runtime",
		"hydranet/bench.main":                                  "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestPercentileNeedsTenBeyond: a tail percentile is refused unless at
// least ten samples lie beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, err := percentile(samples(999), 99); err == nil {
		t.Error("p99 of 999 samples (9.99 beyond) was not refused")
	}
	if v, err := percentile(samples(1000), 99); err != nil || v < 990 || v > 991 {
		t.Errorf("p99 of 1..1000 = %v, %v", v, err)
	}
	if _, err := percentile(samples(144), 95); err == nil {
		t.Error("p95 of 144 samples (7.2 beyond) was not refused")
	}
	if v, err := percentile(samples(5), 50); err != nil || v != 3 {
		t.Errorf("median of 1..5 = %v, %v", v, err)
	}
	for n, want := range map[int]float64{5: 50, 40: 75, 144: 90, 258: 95, 1000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", n, got, want)
		}
	}
	if l := summarize(samples(144)); l.TailPct != 90 || l.Samples != 144 || l.P50 != 72.5 {
		t.Errorf("summarize(1..144) = %+v", l)
	}
}
