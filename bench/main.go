// Command bench is hydrabench: the one benchmark performance claims about
// this simulator cite. See README.md in this directory.
//
//	bash bench/run.sh --workload ft_small --seed 1 --seconds 20 --trace 0
//
// runs one workload for the driver and prints one JSON object as the last
// line; without --workload it runs all four. --trace 1 is the separate
// traced run that produces the per-layer metrics; -selfcheck runs two sets
// and compares them against the bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark writes goes, relative to the
// working directory; the repo's .gitignore names it.
const buildDir = ".bench_build"

type metricDef struct {
	name, unit string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by; BENCHMARK.json repeats it and bench_test.go keeps the two
	// equal. Zero for per-layer metrics.
	bound float64
	// higher is true when a larger value is better.
	higher bool
	// host is true for a measurement of this machine; false for a simulated
	// result, which repeats exactly for a seed.
	host bool
}

// endToEnd is what a user of the simulator sees, every one on every
// workload. Host times are for fixed work, never per event or per frame,
// so removing events or frames can only help.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, host: true},
	{name: "wall_s", unit: "s", bound: 0.25, host: true},
	{name: "mallocs_m", unit: "M", bound: 0.01, host: true},
	{name: "goodput_kbps", unit: "kB/s", bound: 0.03, higher: true},
	{name: "lat_ms_p50", unit: "sim_ms", bound: 0.01},
	{name: "lat_ms_tail", unit: "sim_ms", bound: 0.02},
}

var countDefs = []metricDef{
	{name: "sim.events", unit: "count"}, {name: "sim.events_per_frame", unit: "ratio"}, {name: "sim.events_per_sec", unit: "1/s"},
	{name: "netsim.frames", unit: "count"}, {name: "netsim.frames_per_sec", unit: "1/s"},
	{name: "netsim.lost", unit: "count"}, {name: "netsim.queue_drops", unit: "count"},
	{name: "ipv4.delivered", unit: "count"}, {name: "ipv4.forwarded", unit: "count"}, {name: "ipv4.originated", unit: "count"},
	{name: "tcp.segs_in", unit: "count"}, {name: "tcp.segs_out", unit: "count"}, {name: "tcp.retransmits", unit: "count"},
	{name: "tcp.rto_events", unit: "count"}, {name: "tcp.segs_suppressed", unit: "count"}, {name: "tcp.conns", unit: "count"},
	{name: "core.chain_msgs_sent", unit: "count"}, {name: "core.chain_msgs_per_kb", unit: "1/kB"},
	{name: "core.suspicions", unit: "count"}, {name: "core.promotions", unit: "count"},
	{name: "redirector.multicast", unit: "count"}, {name: "redirector.copies_per_multicast", unit: "ratio"},
	{name: "redirector.redirected", unit: "count"}, {name: "redirector.passed_through", unit: "count"},
	{name: "rmp.registrations", unit: "count"}, {name: "rmp.reconfigs", unit: "count"}, {name: "rmp.probes_sent", unit: "count"},
	{name: "rmp.detect_ms_p50", unit: "sim_ms"},
	{name: "runtime.alloc_mb", unit: "MB"}, {name: "runtime.gc_cycles", unit: "count"},
	{name: "runtime.gc_pause_ms", unit: "ms"}, {name: "runtime.max_rss_mb", unit: "MB"},
}

var observerDefs = []metricDef{
	{name: "capture.pcap_overhead", unit: "ratio"}, {name: "series.sampler_overhead", unit: "ratio"},
	{name: "prof.profile_overhead", unit: "ratio"}, {name: "invariant.monitor_overhead", unit: "ratio"},
	{name: "capture.flight_overhead", unit: "ratio"}, {name: "tcp.spans_overhead", unit: "ratio"},
}

// perLayer lists every metric of the traced run.
func perLayer() []metricDef {
	var d []metricDef
	for _, op := range ledgerOps {
		d = append(d, metricDef{name: op.name + ".ns_op", unit: "ns"}, metricDef{name: op.name + ".allocs_op", unit: "count"})
	}
	d = append(d, countDefs...)
	for _, l := range cpuLayers {
		d = append(d, metricDef{name: l + ".cpu_share", unit: "share"})
	}
	d = append(d, metricDef{name: "trace.samples", unit: "count"}, metricDef{name: "trace.overhead_ratio", unit: "ratio"})
	d = append(d, observerDefs...)
	return append(d,
		metricDef{name: "core.lossy_churn_failed_share", unit: "share"},
		metricDef{name: "core.lossy_churn_stalled", unit: "count"},
		metricDef{name: "core.lossy_failover_failed_share", unit: "share"},
		metricDef{name: "core.lossy_failover_suspicions", unit: "count"},
		metricDef{name: "invariant.violations", unit: "count"})
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is everything one workload's run reports.
type result struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Traced      bool     `json:"traced"`
	Repetitions int      `json:"repetitions"`
	Problems    []string `json:"problems,omitempty"` // failed checks; empty means correct
	driverLine
	// WallS and SetupS are the individual repetitions behind the medians.
	WallS     []float64 `json:"wall_s_repetitions"`
	SetupS    []float64 `json:"setup_s_repetitions"`
	Latency   string    `json:"latency_samples"`
	SimDigest string    `json:"sim_digest"`
}

// repetition is one prepared-and-run instance of a workload.
type repetition struct {
	setupS, wallS       float64
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	out                 outcome
	profile             []byte
}

type harness struct {
	seed    int64
	seconds float64
	spans   *spanRecorder
	// shared holds the traced run's workload-independent sections (ledger,
	// observer cost, lossy probe, reference checks), computed once a process.
	shared *sharedTrace
}

// repeat runs one repetition: prepare (untimed set-up and warm-up), the
// timed fixed work with heap and, when traced, CPU profile around it, then
// collect.
func (h *harness) repeat(w workload, traced bool) repetition {
	defer h.spans.repetition("repetition " + w.name)()

	endSetup := h.spans.start("setup")
	start := time.Now()
	inst := w.prepare(params{seed: h.seed, scale: 1, span: h.spans.start})
	runtime.GC() // every timed section starts from a collected heap
	r := repetition{setupS: time.Since(start).Seconds()}
	endSetup()

	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(err)
		}
	}
	endRun := h.spans.start("run")
	start = time.Now()
	inst.run()
	r.wallS = time.Since(start).Seconds()
	endRun()
	if traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs

	endCollect := h.spans.start("collect")
	r.out = inst.collect()
	endCollect()
	return r
}

// exact lists an outcome's simulated results and counts by name: the
// digest's input, and what -selfcheck requires to be identical.
func exact(o outcome) map[string]float64 {
	c := o.counts
	m := map[string]float64{
		"attempted": float64(o.attempted), "failed": float64(o.failed), "stalled": float64(o.stalled),
		"goodput_kbps": o.goodputKBps, "lat_ms_p50": o.lat.P50, "lat_ms_tail": o.lat.Tail,
		"lat_samples": float64(o.lat.Samples), "detect_ms_p50": o.detectMsP50, "virtual_s": o.virtualSeconds,
		"sim.events": float64(c.Events), "netsim.frames": float64(c.Frames), "netsim.lost": float64(c.Lost),
		"netsim.queue_drops": float64(c.QueueDrops), "ipv4.delivered": float64(c.IPDelivered),
		"ipv4.forwarded": float64(c.IPForwarded), "ipv4.originated": float64(c.IPOriginated),
		"tcp.segs_in": float64(c.SegsIn), "tcp.segs_out": float64(c.SegsOut), "tcp.retransmits": float64(c.Retransmits),
		"tcp.rto_events": float64(c.RTOEvents), "tcp.segs_suppressed": float64(c.SegsSuppressed), "tcp.conns": float64(c.Conns),
		"core.chain_msgs_sent": float64(c.ChainMsgsSent), "core.suspicions": float64(c.Suspicions),
		"core.promotions": float64(c.Promotions), "redirector.multicast": float64(c.Multicast),
		"redirector.multicast_copies": float64(c.MulticastCopies), "redirector.redirected": float64(c.Redirected),
		"redirector.passed_through": float64(c.PassedThr), "rmp.registrations": float64(c.Registrations),
		"rmp.reconfigs": float64(c.Reconfigs), "rmp.probes_sent": float64(c.ProbesSent), "app_bytes": float64(c.AppBytes),
	}
	for k, v := range o.extra {
		m[k] = v
	}
	return m
}

// summarizeReps folds repetitions of identical work into a result with the
// end-to-end metrics. The simulated results must be the same in every
// repetition. The host times are the fastest repetition's: the work is
// fixed and single-threaded, so whatever else runs on the machine can only
// add to a repetition's time, in bursts that on a shared box last longer
// than a run (README.md, "Steadiness"); the minimum is the one statistic
// of a run's repetitions that such bursts leave alone. Allocation counts
// barely vary and are reported as the median.
func (h *harness) summarizeReps(w workload, reps []repetition) result {
	res := result{Workload: w.name, Seed: h.seed, Repetitions: len(reps)}
	first := reps[0].out
	res.SimDigest = digest(exact(first))
	var mallocs []float64
	for i, r := range reps {
		res.WallS = append(res.WallS, r.wallS)
		res.SetupS = append(res.SetupS, r.setupS)
		mallocs = append(mallocs, float64(r.mallocs)/1e6)
		res.Attempted += r.out.attempted
		res.Failed += r.out.failed
		if d := digest(exact(r.out)); d != res.SimDigest {
			res.Problems = append(res.Problems, fmt.Sprintf("repetition %d is not deterministic: sim_digest %s, first repetition %s", i+1, d, res.SimDigest))
		}
	}
	for _, f := range first.failures {
		res.Problems = append(res.Problems, "failed operation: "+f)
	}
	if first.lat.Samples == 0 || first.goodputKBps <= 0 {
		res.Problems = append(res.Problems, "no latency samples or no goodput")
	}
	res.Latency = fmt.Sprintf("%d samples of %s; tail is p%g", first.lat.Samples, first.latWhat, first.lat.TailPct)
	values := map[string]float64{
		"setup_s": minimum(res.SetupS), "wall_s": minimum(res.WallS), "mallocs_m": median(mallocs),
		"goodput_kbps": first.goodputKBps, "lat_ms_p50": first.lat.P50, "lat_ms_tail": first.lat.Tail,
	}
	res.Metrics = map[string]metricValue{}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	res.Correct = len(res.Problems) == 0
	return res
}

// timed is the untraced run: repetitions of the workload's fixed work for
// h.seconds.
func (h *harness) timed(w workload) result {
	end := h.spans.start("workload " + w.name)
	defer end()
	var reps []repetition
	for start := time.Now(); len(reps) == 0 || time.Since(start).Seconds() < h.seconds; {
		reps = append(reps, h.repeat(w, false))
	}
	return h.summarizeReps(w, reps)
}

// sharedTrace is the part of the traced run that no workload owns.
type sharedTrace struct {
	metrics  map[string]float64
	problems []string
	notes    []string
}

func (h *harness) sharedSections() *sharedTrace {
	if h.shared != nil {
		return h.shared
	}
	s := &sharedTrace{metrics: map[string]float64{}}
	end := h.spans.start("ledger")
	for k, v := range runLedger(1, h.spans) {
		s.metrics[k] = v
	}
	end()

	end = h.spans.start("observer cost")
	dir, cleanup := scratchDir()
	for k, v := range observerCost(dir) {
		s.metrics[k] = v
	}
	cleanup()
	end()

	// The lossy probes record known defects as numbers a later correctness
	// fix can move; they are untimed and do not make the run incorrect.
	end = h.spans.start("lossy probes")
	probe := params{seed: h.seed, scale: 1, span: h.spans.start}
	lossy := prepareChurn(probe, 1000, 0, 0.003)
	lossy.run()
	o := lossy.collect()
	s.metrics["core.lossy_churn_failed_share"] = float64(o.failed) / float64(o.attempted)
	s.metrics["core.lossy_churn_stalled"] = float64(o.stalled)
	s.notes = append(s.notes, fmt.Sprintf("lossy churn probe (0.3 %% link loss): %d of %d connections failed, %d of them aborted at the %v deadline %v",
		o.failed, o.attempted, o.stalled, opDeadline, o.failures))
	lossy = prepareFailover(probe, foLossyModes)
	lossy.run()
	o = lossy.collect()
	s.metrics["core.lossy_failover_failed_share"] = float64(o.failed) / float64(o.attempted)
	s.metrics["core.lossy_failover_suspicions"] = float64(o.counts.Suspicions)
	s.notes = append(s.notes, fmt.Sprintf("lossy failover probe (crash at 1 %% loss, no crash at 2 %%): %d of %d scenarios failed, %d suspicions %v",
		o.failed, o.attempted, o.counts.Suspicions, o.failures))
	end()

	end = h.spans.start("reference checks")
	for _, p := range referenceChecks() {
		s.problems = append(s.problems, "bench scenario differs from internal/testbed: "+p)
	}
	points, bad := figure4Ordering()
	for _, p := range bad {
		s.problems = append(s.problems, "Figure 4 curve order (clean >= no redirection > primary only > primary and backup): "+p)
	}
	s.notes = append(s.notes, fmt.Sprintf("Figure 4: curve order checked at %d points; the paper gives the figure only as a plot, so the model is unvalidated and no error figure is given", points))
	end()
	h.shared = s
	return s
}

// traced is the separate traced run: the shared sections, then pairs of
// an untraced and a CPU-profiled repetition for h.seconds, then a reduced
// pass under the hydrainv monitor.
func (h *harness) traced(w workload) result {
	end := h.spans.start("workload " + w.name)
	defer end()
	shared := h.sharedSections()

	var plain, profiled []repetition
	for start := time.Now(); len(plain) == 0 || time.Since(start).Seconds() < h.seconds; {
		plain = append(plain, h.repeat(w, false))
		profiled = append(profiled, h.repeat(w, true))
	}
	res := h.summarizeReps(w, append(append([]repetition(nil), plain...), profiled...))
	res.Traced = true
	res.Problems = append(res.Problems, shared.problems...)

	endChecked := h.spans.start("invariant-checked pass")
	inst := w.prepare(params{seed: h.seed, scale: 0.1, monitor: true, span: h.spans.start})
	inst.run()
	checked := inst.collect()
	endChecked()
	if checked.violations > 0 || checked.failed > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("invariant-checked pass: %d hydrainv violations, %d failed operations %v",
			checked.violations, checked.failed, checked.failures))
	}

	m := map[string]float64{}
	for k, v := range shared.metrics {
		m[k] = v
	}
	m["invariant.violations"] = float64(checked.violations)

	var plainWall, tracedWall []float64
	leaves := map[string]int64{}
	for i := range plain {
		plainWall = append(plainWall, plain[i].wallS)
		tracedWall = append(tracedWall, profiled[i].wallS)
		l, err := leafSamples(profiled[i].profile)
		if err != nil {
			res.Problems = append(res.Problems, err.Error())
		}
		for fn, n := range l {
			leaves[fn] += n
		}
	}
	shares, samples := cpuShares(leaves)
	for l, v := range shares {
		m[l+".cpu_share"] = v
	}
	wall := minimum(plainWall)
	m["trace.samples"] = float64(samples)
	m["trace.overhead_ratio"] = minimum(tracedWall) / wall

	o, c := plain[0].out, plain[0].out.counts
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	for k, v := range exact(o) {
		m[k] = v // the counts share their names with the per-layer metrics
	}
	m["sim.events_per_frame"] = ratio(c.Events, c.Frames)
	m["sim.events_per_sec"] = float64(c.Events) / wall
	m["netsim.frames_per_sec"] = float64(c.Frames) / wall
	m["core.chain_msgs_per_kb"] = ratio(c.ChainMsgsSent*1000, c.AppBytes)
	m["redirector.copies_per_multicast"] = ratio(c.MulticastCopies, c.Multicast)
	m["rmp.detect_ms_p50"] = o.detectMsP50
	m["runtime.alloc_mb"] = float64(plain[0].allocBytes) / 1e6
	m["runtime.gc_cycles"] = float64(plain[0].gcCycles)
	m["runtime.gc_pause_ms"] = float64(plain[0].gcPauseNs) / 1e6
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["runtime.max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}

	res.Metrics = map[string]metricValue{}
	for _, d := range perLayer() {
		res.Metrics[d.name] = metricValue{m[d.name], d.unit}
	}
	res.Correct = len(res.Problems) == 0
	return res
}

// report prints a result for people, then the driver's line.
func report(res result, notes []string) {
	fmt.Printf("\n== %s  seed %d  %d repetitions  sim_digest %s\n", res.Workload, res.Seed, res.Repetitions, res.SimDigest)
	fmt.Printf("   operations: %d attempted, %d failed (failed_share %.6f)\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	fmt.Printf("   latency: %s\n", res.Latency)
	q1, med, q3 := quartiles(res.WallS)
	fmt.Printf("   wall_s repetitions: fastest %.4f, median %.4f, quartiles %.4f .. %.4f\n", minimum(res.WallS), med, q1, q3)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("   %-36s %16.6g %s\n", name, v.Value, v.Unit)
	}
	for _, n := range notes {
		fmt.Printf("   note: %s\n", n)
	}
	for _, p := range res.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	line, err := json.Marshal(res.driverLine)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s\n", line)
}

// machineFacts records what a number was measured on.
func machineFacts() map[string]any {
	facts := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH, "git_rev": "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				facts["git_rev"] = s.Value
			}
		}
	}
	return facts
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload: ft_small, clean_bulk, failover_sweep or churn (default: all four)")
		seed      = flag.Int64("seed", 1, "workload seed; inputs are generated from it (2 is the hold-out)")
		seconds   = flag.Float64("seconds", 20, "how long each workload repeats its fixed work")
		trace     = flag.Int("trace", 0, "1 for the traced run that prints the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run two sets, compare them against the bounds, and check that another seed changes sim_digest")
		traceOut  = flag.String("trace-out", "", "where to write the harness spans (default with -trace 1: "+buildDir+"/spans.json)")
		out       = flag.String("out", "", "also write every result of this invocation to this JSON file")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}

	facts := machineFacts()
	fmt.Printf("hydrabench: nproc %v, GOMAXPROCS %v, %v %v/%v, git %v; one process, one goroutine drives the simulator\n",
		facts["nproc"], facts["gomaxprocs"], facts["go"], facts["goos"], facts["goarch"], facts["git_rev"])

	h := &harness{seed: *seed, seconds: *seconds, spans: newSpanRecorder()}
	endBench := h.spans.start("bench")
	record := map[string]any{"machine": facts, "seed": *seed, "seconds": *seconds}
	ok := true
	switch {
	case *selfcheck:
		var sc selfcheckReport
		sc, ok = h.selfcheck(selected)
		record["selfcheck"] = sc
	default:
		var results []result
		for _, w := range selected {
			var res result
			var notes []string
			if *trace == 1 {
				res = h.traced(w)
				notes = h.shared.notes
			} else {
				res = h.timed(w)
			}
			report(res, notes)
			results = append(results, res)
			ok = ok && res.Correct
		}
		record["results"] = results
	}
	endBench()

	if *traceOut == "" && *trace == 1 {
		*traceOut = filepath.Join(buildDir, "spans.json")
	}
	if *traceOut != "" {
		if err := h.spans.write(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench: %d harness spans written to %s\n", len(h.spans.spans), *traceOut)
	}
	if *out != "" {
		data, err := json.MarshalIndent(record, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}
