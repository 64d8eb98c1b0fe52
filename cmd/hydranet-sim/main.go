// Command hydranet-sim runs a scripted HydraNet-FT scenario and narrates
// it: a client talks to a replicated echo service through a redirector,
// optionally the primary (or a backup) is crashed mid-stream, and the tool
// reports the timeline — registration, chain construction, suspicion,
// reconfiguration, promotion — plus final per-component statistics.
//
// Narration flags:
//
//	-events <kinds>  stream selected bus events (comma-separated kind
//	                 names, or "all"); -events list shows the kinds
//	-v               shorthand for the management kinds (registration,
//	                 reconfig, suspicion, promotion, crash/restart)
//	-stats           print a net-wide counter summary at the end
//	-stats-json F    write the full snapshot (with failover timeline) to F
//
// The observer flags (-pcap -invariants -audit …) are
// testbed.ObserverFlags, shared with the experiment subcommand.
//
// hydranet-sim experiment <name> prints one EXPERIMENTS.md table (Figure 4
// and ablations A1–A5), each the output of exactly this one command;
// hydranet-sim experiment list names them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"hydranet"
	"hydranet/internal/obs"
	"hydranet/internal/tcp"
	"hydranet/internal/testbed"
)

// verboseKinds are the management-plane events -v narrates.
var verboseKinds = []hydranet.EventKind{
	hydranet.KindRegistration, hydranet.KindReconfig, hydranet.KindSuspicion,
	hydranet.KindPromotion, hydranet.KindDemotion, hydranet.KindRecommission,
	hydranet.KindNodeCrash, hydranet.KindNodeRestart,
}

// parseKinds resolves a comma-separated -events pattern to kinds.
func parseKinds(pattern string) ([]hydranet.EventKind, error) {
	if pattern == "all" || pattern == "*" {
		return obs.Kinds(), nil
	}
	var out []hydranet.EventKind
	for _, name := range strings.Split(pattern, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		k, ok := obs.KindByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown event kind %q", name)
		}
		out = append(out, k)
	}
	return out, nil
}

// usage reports a bad command line and exits 2, before any file is created
// or any virtual time runs.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hydranet-sim: "+format+"\n", args...)
	os.Exit(2)
}

// fatal reports err, if any, and exits 1.
func fatal(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydranet-sim: %s: %v\n", what, err)
		os.Exit(1)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "experiment" {
		experiment(os.Args[2:])
		return
	}
	replicas := flag.Int("replicas", 3, "total replicas (1 primary + N-1 backups)")
	bytes := flag.Int("bytes", 1<<20, "bytes the client streams through the echo service")
	crashAt := flag.Duration("crash-at", 400*time.Millisecond, "when to crash a replica (0 = never)")
	crashWho := flag.String("crash", "primary", "which replica to crash: primary, backup, none")
	threshold := flag.Int("threshold", 3, "failure detector retransmission threshold")
	seed := flag.Int64("seed", 1, "simulation seed")
	verbose := flag.Bool("v", false, "narrate management events (registration, reconfiguration, promotion)")
	events := flag.String("events", "", "stream bus events of these kinds (comma-separated, \"all\", or \"list\")")
	stats := flag.Bool("stats", false, "print net-wide statistics at the end")
	perf := flag.Bool("perf", false, "report simulator performance (events/sec, frames/sec, wall time)")
	statsJSON := flag.String("stats-json", "", "write the final snapshot as JSON to this file (\"-\" = stdout)")
	traceSegs := flag.Int("trace", 0, "emit up to N tcpdump-style segment trace lines")
	observe, startPprof := testbed.ObserverFlags(flag.CommandLine)
	flag.Parse()

	if *events == "list" {
		for _, k := range obs.Kinds() {
			fmt.Println(k)
		}
		return
	}
	// Everything the command line can get wrong is diagnosed here, before
	// any file is created or any virtual time runs.
	watched, err := parseKinds(*events)
	switch {
	case err != nil:
		usage("-events: %v (try -events list)", err)
	case *replicas < 1:
		usage("need at least one replica")
	case *replicas > 255:
		usage("-replicas %d: want at most 255 (the client's link and one per replica use the 256 subnets)", *replicas)
	case *crashAt < 0:
		usage("-crash-at %v: want 0 or more", *crashAt)
	case *traceSegs < 0:
		usage("-trace %d: want 0 or more", *traceSegs)
	case *bytes < 1:
		usage("-bytes %d: want 1 or more", *bytes)
	case *threshold < 0:
		usage("-threshold %d: want 1 or more, or 0 for the detector's default", *threshold)
	case *crashWho != "primary" && *crashWho != "backup" && *crashWho != "none":
		usage("unknown -crash %q (want primary, backup or none)", *crashWho)
	case *crashWho == "backup" && *replicas < 2:
		usage("-crash backup needs -replicas 2 or more")
	}
	stopPprof, err := startPprof()
	fatal("pprof", err)

	// With -stats-json -, standard output carries the snapshot alone and the
	// narration goes to standard error.
	out := os.Stdout
	if *statsJSON == "-" {
		out = os.Stderr
	}
	var run *testbed.Run // the run being narrated, once it has a network
	logf := func(format string, args ...any) {
		fmt.Fprintf(out, "%10s  %s\n", run.Net.Now().Round(time.Microsecond), fmt.Sprintf(format, args...))
	}
	// kindCounts is a slice indexed by event kind, not a map: iterating it
	// at print time is deterministic. The -stats emission below still sorts
	// by kind name so the listing is stable under kind renumbering.
	var kindCounts []uint64
	observe.Scenario = fmt.Sprintf("hydranet-sim replicas=%d bytes=%d crash=%s", *replicas, *bytes, *crashWho)
	observe.Failover = true // the timeline below is part of every narration
	sc := testbed.Scenario{Seed: *seed, Observe: *observe, Replicas: *replicas, Threshold: *threshold,
		Send: make([]byte, *bytes), Log: logf, Setup: func(r *testbed.Run) {
			run = r
			if *traceSegs > 0 {
				traceSegments(r, out, *traceSegs)
			}
			// -v and -events share one code path: both subscribe the same
			// printer to the observability bus, just for different kind sets.
			if *verbose {
				watched = append(watched, verboseKinds...)
			}
			if len(watched) > 0 {
				r.Net.Bus().Subscribe(func(e hydranet.Event) { fmt.Fprintln(out, e) }, watched...)
			}
			if *stats {
				kindCounts = make([]uint64, len(obs.Kinds()))
				r.Net.Bus().Subscribe(func(e hydranet.Event) { kindCounts[e.Kind]++ })
			}
		}}
	// Run until the stream completes or a generous deadline passes.
	received := func(r *testbed.Run) bool { return r.Delivered >= *bytes }
	sc.Steps = []testbed.Step{{After: time.Second, Until: received, Limit: 5 * time.Minute}}
	if *crashAt > 0 && *crashWho != "none" {
		crash := testbed.Fault{At: *crashAt, Kind: testbed.CrashPrimary}
		if *crashWho == "backup" {
			crash = testbed.Fault{At: *crashAt, Kind: testbed.Crash, Replica: *replicas - 1}
		}
		sc.Faults = []testbed.Fault{crash}
		sc.Steps = []testbed.Step{{After: *crashAt}, {After: time.Second, Until: received, Limit: *crashAt + 5*time.Minute}}
	}
	r := sc.Play()
	if r.Session == nil {
		fatal("observers", r.ObserveErr)
	}
	logf("client received %d of %d bytes (%.1f%%)",
		r.Delivered, *bytes, 100*float64(r.Delivered)/float64(*bytes))
	logf("final chain: %v", r.Service.Chain())

	fmt.Fprintln(out, "\ncomponent statistics:")
	rs := r.Redirector.Table().Stats()
	fmt.Fprintf(out, "  redirector: %d FT matches, %d tunnel copies, %d passed through\n",
		rs.Multicast, rs.MulticastCopies, rs.PassedThrough)
	ds := r.Redirector.Daemon().Stats()
	fmt.Fprintf(out, "  management: %d registrations, %d suspicions, %d probes, %d hosts failed\n",
		ds.Registrations, ds.Suspicions, ds.ProbesSent, ds.HostsFailed)
	for _, rep := range r.Service.Replicas() {
		ms := rep.Host.FTManager().Stats()
		status := "alive"
		if !rep.Host.Alive() {
			status = "CRASHED"
		}
		fmt.Fprintf(out, "  %s (%s, %s): chain msgs %d sent / %d received, %d suspicions, %d promotions\n",
			rep.Host.Name(), rep.Port.Mode(), status,
			ms.ChainMsgsSent, ms.ChainMsgsReceived, ms.Suspicions, ms.Promotions)
	}
	fatal("observers", r.ObserveErr)
	sum := r.Summary

	report := sum.Failover
	if report.CrashAt > 0 {
		fmt.Fprintln(out, "\nfailover timeline:")
		fmt.Fprintf(out, "  crash            %v\n", report.CrashAt)
		fmt.Fprintf(out, "  detection        %v\n", report.Detection)
		fmt.Fprintf(out, "  reconfiguration  %v\n", report.Reconfiguration)
		fmt.Fprintf(out, "  client stall     %v  (complete: %v)\n", report.ClientStall, report.Complete)
	}
	if observe.Pcap != "" {
		logf("pcap: %d records (%d pre-encap inner copies) written to %s",
			sum.PcapRecords, sum.PcapInner, observe.Pcap)
	}
	if observe.Audit != "" {
		logf("audit report written to %s (render with: hydrascope audit %s)", observe.Audit, observe.Audit)
	}

	snap := r.Net.Snapshot()
	if report.CrashAt > 0 {
		snap.Failover = &report
	}
	if *perf {
		info := r.Info()
		fmt.Fprintf(out, "\nsimulator performance: %d events, %d frames in %v",
			info.Events, info.Frames, info.Wall.Round(time.Microsecond))
		if s := info.Wall.Seconds(); s > 0 {
			fmt.Fprintf(out, " (%.0f events/sec, %.0f frames/sec)", float64(info.Events)/s, float64(info.Frames)/s)
		}
		fmt.Fprintln(out)
	}
	if *stats {
		printSnapshot(out, snap)
		fmt.Fprintln(out, "  event counts:")
		type kindCount struct {
			name  string
			count uint64
		}
		var counts []kindCount
		for k, c := range kindCounts {
			if c > 0 {
				counts = append(counts, kindCount{obs.Kind(k).String(), c})
			}
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i].name < counts[j].name })
		for _, kc := range counts {
			fmt.Fprintf(out, "    %-16s %8d\n", kc.name, kc.count)
		}
	}
	if *statsJSON != "" {
		js, err := snap.JSON()
		fatal("-stats-json", err)
		js = append(js, '\n')
		if *statsJSON == "-" {
			os.Stdout.Write(js)
		} else {
			fatal("-stats-json", os.WriteFile(*statsJSON, js, 0o644))
		}
	}
	if audit := sum.Audit; audit != nil && audit.Clean {
		fmt.Fprintf(out, "\ninvariants: clean (%d checks over %d events, %d frames)\n",
			audit.Checks, audit.Events, audit.Frames)
	} else if audit != nil {
		fmt.Fprintf(out, "\ninvariants: %d VIOLATIONS (%d checks over %d events):\n",
			audit.TotalViolations(), audit.Checks, audit.Events)
		for _, v := range audit.Violations {
			fmt.Fprintf(out, "  %s\n", v)
		}
	}
	if *verbose {
		fmt.Fprintf(out, "\nvirtual time elapsed: %v\n", r.Net.Now())
	}
	fatal("pprof", stopPprof())
	if r.Delivered < *bytes || (sum.Audit != nil && !sum.Audit.Clean) {
		os.Exit(1)
	}
}

// traceSegments prints one tcpdump-style line per segment at each stack
// boundary of the client and the replicas, the first n of them.
func traceSegments(r *testbed.Run, out io.Writer, n int) {
	lines := 0
	trace := func(host string) tcp.TraceFunc {
		return func(dir string, local, remote tcp.Endpoint, seg *tcp.Segment) {
			if lines >= n {
				return
			}
			lines++
			a, b, arrow := local, remote, "→"
			if dir == "in" {
				a, b, arrow = remote, local, "←"
			}
			fmt.Fprintf(out, "%12s %-10s tcp %s %s %s  %s\n", r.Net.Now().Round(time.Microsecond), host, a, arrow, b, seg)
		}
	}
	r.Client.TCP().SetTrace(trace("client"))
	for _, h := range r.Replicas {
		h.TCP().SetTrace(trace(h.Name()))
	}
}

// printSnapshot renders the net-wide snapshot as tables.
func printSnapshot(out io.Writer, s hydranet.Snapshot) {
	fmt.Fprintf(out, "\nnet-wide statistics at %v:\n", s.Time)
	fmt.Fprintf(out, "  %-8s %6s %6s %6s | %8s %8s %6s %5s %5s | %10s %10s\n",
		"host", "frTx", "frRx", "frDrp", "segsOut", "segsIn", "rexmt", "rto", "fast", "bytesOut", "bytesIn")
	for _, h := range s.Hosts {
		mark := ""
		if !h.Alive {
			mark = " (down)"
		}
		fmt.Fprintf(out, "  %-8s %6d %6d %6d | %8d %8d %6d %5d %5d | %10d %10d%s\n",
			h.Name, h.Frames.Sent, h.Frames.Received, h.Frames.Dropped,
			h.TCP.SegsOut, h.TCP.SegsIn,
			h.Conns.Retransmits, h.Conns.RTOEvents, h.Conns.FastRetransmits,
			h.Conns.BytesSent, h.Conns.BytesReceived, mark)
	}
	fmt.Fprintf(out, "  %-17s %8s %6s %6s | %8s %6s %6s\n",
		"link", "a→b tx", "lost", "qdrop", "b→a tx", "lost", "qdrop")
	for _, l := range s.Links {
		fmt.Fprintf(out, "  %-8s-%-8s %8d %6d %6d | %8d %6d %6d\n",
			l.A, l.B, l.AB.TxFrames, l.AB.Lost, l.AB.QueueDrop,
			l.BA.TxFrames, l.BA.Lost, l.BA.QueueDrop)
	}
	for _, h := range s.Hosts {
		if h.RTT != nil {
			fmt.Fprintf(out, "  %s rtt: n=%d p50=%.2fms p99=%.2fms max=%.2fms\n",
				h.Name, h.RTT.Count, h.RTT.P50, h.RTT.P99, h.RTT.Max)
		}
	}
}
