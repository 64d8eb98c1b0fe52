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
// The observer flags (-pcap -series -invariants -audit …) are
// testbed.ObserverFlags, shared with the experiment subcommand.
//
// hydranet-sim experiment <name> prints one EXPERIMENTS.md table (Figure 4
// and ablations A1–A5), each the output of exactly this one command;
// hydranet-sim experiment list names them.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hydranet"
	"hydranet/internal/app"
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
	case observe.SampleEvery < 0:
		usage("-sample-every %v: want 0 or more", observe.SampleEvery)
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

	net := hydranet.New(hydranet.Config{Seed: *seed})
	client := net.AddHost("client", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	var hosts []*hydranet.Host
	for i := 0; i < *replicas; i++ {
		hosts = append(hosts, net.AddHost(fmt.Sprintf("s%d", i), hydranet.HostConfig{}))
	}
	link := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Link(client, rd.Host, link)
	for _, h := range hosts {
		net.Link(h, rd.Host, link)
	}
	net.AutoRoute()

	observe.Scenario = fmt.Sprintf("hydranet-sim replicas=%d bytes=%d crash=%s", *replicas, *bytes, *crashWho)
	observe.Failover = true // the timeline below is part of every narration
	sess, err := net.Instrument(*observe)
	fatal("observers", err)

	if *traceSegs > 0 {
		// One tcpdump-style line per segment at each stack boundary, the
		// first -trace of them.
		lines := 0
		traceTCP := func(host string) tcp.TraceFunc {
			return func(dir string, local, remote tcp.Endpoint, seg *tcp.Segment) {
				if lines >= *traceSegs {
					return
				}
				lines++
				a, b, arrow := local, remote, "→"
				if dir == "in" {
					a, b, arrow = remote, local, "←"
				}
				fmt.Printf("%12s %-10s tcp %s %s %s  %s\n", net.Now().Round(time.Microsecond), host, a, arrow, b, seg)
			}
		}
		client.TCP().SetTrace(traceTCP("client"))
		for _, h := range hosts {
			h.TCP().SetTrace(traceTCP(h.Name()))
		}
	}

	// -v and -events share one code path: both subscribe the same printer
	// to the observability bus, just for different kind sets.
	bus := net.Bus()
	if *verbose {
		watched = append(watched, verboseKinds...)
	}
	if len(watched) > 0 {
		bus.Subscribe(func(e hydranet.Event) { fmt.Println(e) }, watched...)
	}
	// kindCounts is a slice indexed by event kind, not a map: iterating it
	// at print time is deterministic. The -stats emission below still sorts
	// by kind name so the listing is stable under kind renumbering.
	var kindCounts []uint64
	if *stats {
		kindCounts = make([]uint64, len(obs.Kinds()))
		bus.Subscribe(func(e hydranet.Event) { kindCounts[e.Kind]++ })
	}

	logf := func(format string, args ...any) {
		fmt.Printf("%10s  %s\n", net.Now().Round(time.Microsecond), fmt.Sprintf(format, args...))
	}

	svc := hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.20"), Port: 80}
	opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: *threshold}}
	ftsvc, err := net.DeployFT(svc, rd, hosts, opts, func(c *hydranet.Conn) { app.Echo(c) })
	fatal("deploy", err)
	logf("deployed %s across %d replicas", svc, *replicas)
	wallStart := time.Now()
	net.Settle()
	logf("chain established: %v (primary first)", ftsvc.Chain())

	conn, err := client.Dial(svc)
	fatal("dial", err)
	received := 0
	buf := make([]byte, 8192)
	conn.OnReadable(func() {
		for {
			n := conn.Read(buf)
			if n == 0 {
				break
			}
			received += n
			if b := net.Bus(); b.Enabled(hydranet.KindClientDeliver) {
				b.Publish(hydranet.Event{
					Kind: hydranet.KindClientDeliver, Node: "client", Size: n,
				})
			}
		}
	})
	conn.OnClosed(func(err error) {
		if err != nil {
			logf("CLIENT CONNECTION FAILED: %v", err)
		}
	})
	payload := make([]byte, *bytes)
	app.Source(conn, payload, false)
	logf("client streaming %d bytes through the fault-tolerant connection", *bytes)

	if *crashAt > 0 && *crashWho != "none" {
		net.RunFor(*crashAt)
		switch *crashWho {
		case "primary":
			dead := ftsvc.CrashPrimary()
			logf("CRASH: primary %s fail-stopped", dead.Name())
		case "backup":
			last := hosts[len(hosts)-1]
			last.Crash()
			logf("CRASH: backup %s fail-stopped", last.Name())
		}
	}

	// Run until the stream completes or a generous deadline passes.
	deadline := net.Now() + 5*time.Minute
	for received < *bytes && net.Now() < deadline {
		net.RunFor(time.Second)
	}
	logf("client received %d of %d bytes (%.1f%%)",
		received, *bytes, 100*float64(received)/float64(*bytes))
	logf("final chain: %v", ftsvc.Chain())

	fmt.Println("\ncomponent statistics:")
	rs := rd.Table().Stats()
	fmt.Printf("  redirector: %d FT matches, %d tunnel copies, %d passed through\n",
		rs.Multicast, rs.MulticastCopies, rs.PassedThrough)
	ds := rd.Daemon().Stats()
	fmt.Printf("  management: %d registrations, %d suspicions, %d probes, %d hosts failed\n",
		ds.Registrations, ds.Suspicions, ds.ProbesSent, ds.HostsFailed)
	for _, r := range ftsvc.Replicas() {
		ms := r.Host.FTManager().Stats()
		status := "alive"
		if !r.Host.Alive() {
			status = "CRASHED"
		}
		fmt.Printf("  %s (%s, %s): chain msgs %d sent / %d received, %d suspicions, %d promotions\n",
			r.Host.Name(), r.Port.Mode(), status,
			ms.ChainMsgsSent, ms.ChainMsgsReceived, ms.Suspicions, ms.Promotions)
	}

	wall := time.Since(wallStart)
	sum, err := sess.Finish()
	fatal("observers", err)

	report := sum.Failover
	if report.CrashAt > 0 {
		fmt.Println("\nfailover timeline:")
		fmt.Printf("  crash            %v\n", report.CrashAt)
		fmt.Printf("  detection        %v\n", report.Detection)
		fmt.Printf("  reconfiguration  %v\n", report.Reconfiguration)
		fmt.Printf("  client stall     %v  (complete: %v)\n", report.ClientStall, report.Complete)
	}
	if observe.Pcap != "" {
		logf("pcap: %d records (%d pre-encap inner copies) written to %s",
			sum.PcapRecords, sum.PcapInner, observe.Pcap)
	}
	if observe.Series != "" {
		logf("time series (%d series, %d ticks) written to %s", sum.Series, sum.Ticks, observe.Series)
	}
	if observe.Audit != "" {
		logf("audit report written to %s (render with: hydrascope audit %s)", observe.Audit, observe.Audit)
	}

	snap := net.Snapshot()
	if report.CrashAt > 0 {
		snap.Failover = &report
	}
	if *perf {
		events := net.EventsFired()
		var frames uint64
		for _, h := range snap.Hosts {
			frames += h.Frames.Sent
		}
		fmt.Printf("\nsimulator performance: %d events, %d frames in %v",
			events, frames, wall.Round(time.Microsecond))
		if s := wall.Seconds(); s > 0 {
			fmt.Printf(" (%.0f events/sec, %.0f frames/sec)", float64(events)/s, float64(frames)/s)
		}
		fmt.Println()
	}
	if *stats {
		printSnapshot(snap)
		fmt.Println("  event counts:")
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
			fmt.Printf("    %-16s %8d\n", kc.name, kc.count)
		}
	}
	if *statsJSON != "" {
		out, err := snap.JSON()
		fatal("-stats-json", err)
		out = append(out, '\n')
		if *statsJSON == "-" {
			os.Stdout.Write(out)
		} else {
			fatal("-stats-json", os.WriteFile(*statsJSON, out, 0o644))
		}
	}
	if audit := sum.Audit; audit != nil && audit.Clean {
		fmt.Printf("\ninvariants: clean (%d checks over %d events, %d frames)\n",
			audit.Checks, audit.Events, audit.Frames)
	} else if audit != nil {
		fmt.Printf("\ninvariants: %d VIOLATIONS (%d checks over %d events):\n",
			audit.TotalViolations(), audit.Checks, audit.Events)
		for _, v := range audit.Violations {
			fmt.Printf("  %s\n", v)
		}
	}
	if *verbose {
		fmt.Printf("\nvirtual time elapsed: %v\n", net.Now())
	}
	fatal("pprof", stopPprof())
	if received < *bytes || (sum.Audit != nil && !sum.Audit.Clean) {
		os.Exit(1)
	}
}

// printSnapshot renders the net-wide snapshot as tables.
func printSnapshot(s hydranet.Snapshot) {
	fmt.Printf("\nnet-wide statistics at %v:\n", s.Time)
	fmt.Printf("  %-8s %6s %6s %6s | %8s %8s %6s %5s %5s | %10s %10s\n",
		"host", "frTx", "frRx", "frDrp", "segsOut", "segsIn", "rexmt", "rto", "fast", "bytesOut", "bytesIn")
	for _, h := range s.Hosts {
		mark := ""
		if !h.Alive {
			mark = " (down)"
		}
		fmt.Printf("  %-8s %6d %6d %6d | %8d %8d %6d %5d %5d | %10d %10d%s\n",
			h.Name, h.Frames.Sent, h.Frames.Received, h.Frames.Dropped,
			h.TCP.SegsOut, h.TCP.SegsIn,
			h.Conns.Retransmits, h.Conns.RTOEvents, h.Conns.FastRetransmits,
			h.Conns.BytesSent, h.Conns.BytesReceived, mark)
	}
	fmt.Printf("  %-17s %8s %6s %6s | %8s %6s %6s\n",
		"link", "a→b tx", "lost", "qdrop", "b→a tx", "lost", "qdrop")
	for _, l := range s.Links {
		fmt.Printf("  %-8s-%-8s %8d %6d %6d | %8d %6d %6d\n",
			l.A, l.B, l.AB.TxFrames, l.AB.Lost, l.AB.QueueDrop,
			l.BA.TxFrames, l.BA.Lost, l.BA.QueueDrop)
	}
	for _, h := range s.Hosts {
		if h.RTT != nil {
			fmt.Printf("  %s rtt: n=%d p50=%.2fms p99=%.2fms max=%.2fms\n",
				h.Name, h.RTT.Count, h.RTT.P50, h.RTT.P99, h.RTT.Max)
		}
	}
}
