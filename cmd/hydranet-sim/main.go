// Command hydranet-sim runs a scripted HydraNet-FT scenario and narrates
// it: a client talks to a replicated echo service through a redirector,
// optionally the primary (or a backup) is crashed mid-stream, and the tool
// reports the timeline — registration, chain construction, suspicion,
// reconfiguration, promotion — plus final per-component statistics.
//
// Observability flags:
//
//	-events <kinds>  stream selected bus events (comma-separated kind
//	                 names, or "all"); -events list shows the kinds
//	-v               shorthand for the management kinds (registration,
//	                 reconfig, suspicion, promotion, crash/restart)
//	-stats           print a net-wide counter summary at the end
//	-stats-json F    write the full snapshot (with failover timeline) to F
//	-prof F          write a hydraprof profile (causal critical path) to F;
//	                 render with `hydrascope profile F`
//	-cpuprofile F    write a Go runtime CPU profile of the simulator to F
//	-memprofile F    write a Go runtime heap profile at exit to F
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
	"hydranet/internal/prof"
	"hydranet/internal/trace"
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

func main() {
	replicas := flag.Int("replicas", 3, "total replicas (1 primary + N-1 backups)")
	bytes := flag.Int("bytes", 256*1024, "bytes the client streams through the echo service")
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
	pcapPath := flag.String("pcap", "", "capture every frame (plus pre-encap tunnel copies) to this pcap file")
	flightPrefix := flag.String("flight", "", "run a flight recorder; dump PREFIX.pcap/PREFIX.json on failover (or at the end)")
	spansPath := flag.String("spans", "", "write the per-connection ft-TCP span timeline as JSON to this file (\"-\" = stdout)")
	seriesPath := flag.String("series", "", "export sampled time series (with replica health verdicts) to this file (JSONL, or CSV with a .csv extension)")
	sampleEvery := flag.Duration("sample-every", 0, "telemetry sampling cadence for -series (default 100ms of virtual time)")
	profPath := flag.String("prof", "", "write a hydraprof profile (causal critical path) to this file; render with hydrascope profile")
	invariants := flag.Bool("invariants", false, "run the online protocol-invariant monitor; exit 1 on any violation")
	auditPath := flag.String("audit", "", "write the invariant audit report as JSON to this file (implies -invariants); inspect with hydrascope audit")
	cpuProfile := flag.String("cpuprofile", "", "write a Go runtime CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a Go runtime heap profile to this file at exit")
	flag.Parse()

	stopPprof, err := prof.StartPprof(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydranet-sim: pprof: %v\n", err)
		os.Exit(1)
	}

	if *events == "list" {
		for _, k := range obs.Kinds() {
			fmt.Println(k)
		}
		return
	}
	if *replicas < 1 {
		fmt.Fprintln(os.Stderr, "hydranet-sim: need at least one replica")
		os.Exit(1)
	}

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

	// Attach before any traffic, so the profile covers the whole scripted run.
	var profiler *hydranet.Profiler
	if *profPath != "" {
		profiler = net.StartProfile(hydranet.ProfileConfig{
			Scenario: fmt.Sprintf("hydranet-sim replicas=%d bytes=%d crash=%s",
				*replicas, *bytes, *crashWho),
		})
	}

	// The monitor attaches before DeployFT: it reconstructs replica-set
	// membership from registration events.
	var mon *hydranet.Monitor
	if *invariants || *auditPath != "" {
		mon = net.StartMonitor(hydranet.MonitorConfig{
			Scenario: fmt.Sprintf("hydranet-sim replicas=%d bytes=%d crash=%s",
				*replicas, *bytes, *crashWho),
		})
	}

	if *traceSegs > 0 {
		tr := trace.New(os.Stdout, net.Scheduler())
		tr.SetLimit(uint64(*traceSegs))
		tr.AttachTCP("client", client.TCP())
		for _, h := range hosts {
			tr.AttachTCP(h.Name(), h.TCP())
		}
	}

	// -v and -events share one code path: both subscribe the same printer
	// to the observability bus, just for different kind sets.
	bus := net.Bus()
	watched, err := parseKinds(*events)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydranet-sim: -events: %v (try -events list)\n", err)
		os.Exit(1)
	}
	if *verbose {
		watched = append(watched, verboseKinds...)
	}
	if len(watched) > 0 {
		bus.Subscribe(func(e hydranet.Event) { fmt.Println(e) }, watched...)
	}
	probe := net.NewFailoverProbe()

	// Capture subsystems attach after the topology is final (taps cover
	// every link and redirector) and before any traffic, registration
	// included, hits the wire.
	var capt *hydranet.Capture
	var pcapFile *os.File
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydranet-sim: -pcap: %v\n", err)
			os.Exit(1)
		}
		pcapFile = f
		if capt, err = net.StartCapture(f); err != nil {
			fmt.Fprintf(os.Stderr, "hydranet-sim: -pcap: %v\n", err)
			os.Exit(1)
		}
	}
	var flight *hydranet.FlightRecorder
	if *flightPrefix != "" {
		flight = net.StartFlightRecorder(0, 0)
		flight.DumpOnFailover(probe, *flightPrefix)
		if mon != nil {
			// A violation dumps the forensic bundle the instant it is
			// recorded, while the offending frames are still in the rings.
			flight.DumpOnViolation(mon, *flightPrefix+"-violation")
		}
	}
	var spans *hydranet.SpanCollector
	if *spansPath != "" || *stats || *seriesPath != "" {
		spans = net.NewSpanCollector()
	}
	var tel *hydranet.Telemetry
	if *seriesPath != "" {
		tel = net.StartSampler(hydranet.SamplerConfig{
			Every:  *sampleEvery,
			Spans:  spans,
			Health: &hydranet.HealthConfig{},
		})
		tel.AttachFailover(probe)
		tel.WatchReplicas(hosts...)
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
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydranet-sim: %v\n", err)
		os.Exit(1)
	}
	logf("deployed %s across %d replicas", svc, *replicas)
	wallStart := time.Now()
	net.Settle()
	logf("chain established: %v (primary first)", ftsvc.Chain())

	conn, err := client.Dial(svc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydranet-sim: dial: %v\n", err)
		os.Exit(1)
	}
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
			reps := ftsvc.Replicas()
			if len(reps) > 1 {
				reps[len(reps)-1].Host.Crash()
				logf("CRASH: backup %s fail-stopped", reps[len(reps)-1].Host.Name())
			}
		default:
			fmt.Fprintf(os.Stderr, "hydranet-sim: unknown -crash %q\n", *crashWho)
			os.Exit(1)
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

	report := probe.Report()
	if report.CrashAt > 0 {
		fmt.Println("\nfailover timeline:")
		fmt.Printf("  crash            %v\n", report.CrashAt)
		fmt.Printf("  detection        %v\n", report.Detection)
		fmt.Printf("  reconfiguration  %v\n", report.Reconfiguration)
		fmt.Printf("  client stall     %v  (complete: %v)\n", report.ClientStall, report.Complete)
	}

	wall := time.Since(wallStart)

	if capt != nil {
		if err := capt.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "hydranet-sim: -pcap: %v\n", err)
			os.Exit(1)
		}
		if err := pcapFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hydranet-sim: -pcap: %v\n", err)
			os.Exit(1)
		}
		logf("pcap: %d records (%d pre-encap inner copies) written to %s",
			capt.Packets(), capt.InnerPackets(), *pcapPath)
	}
	if flight != nil {
		if flight.Dumps() == 0 {
			if err := flight.Dump(*flightPrefix); err != nil {
				fmt.Fprintf(os.Stderr, "hydranet-sim: -flight: %v\n", err)
				os.Exit(1)
			}
			logf("flight recorder dumped at end of run to %s.pcap / %s.json", *flightPrefix, *flightPrefix)
		} else {
			logf("flight recorder dumped on failover to %s.pcap / %s.json", *flightPrefix, *flightPrefix)
		}
	}
	if spans != nil && *spansPath != "" {
		if *spansPath == "-" {
			if err := spans.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "hydranet-sim: -spans: %v\n", err)
				os.Exit(1)
			}
		} else {
			f, err := os.Create(*spansPath)
			if err == nil {
				err = spans.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "hydranet-sim: -spans: %v\n", err)
				os.Exit(1)
			}
			logf("span timeline written to %s", *spansPath)
		}
	}
	if tel != nil {
		tel.Stop()
		if err := tel.WriteFile(*seriesPath); err != nil {
			fmt.Fprintf(os.Stderr, "hydranet-sim: -series: %v\n", err)
			os.Exit(1)
		}
		logf("time series (%d series, %d ticks) written to %s",
			tel.Set().Len(), tel.Ticks(), *seriesPath)
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
		if spans != nil {
			if lag := spans.AckChainLag(); lag.Count > 0 {
				fmt.Printf("  ack-chain lag (ms):  %s\n", lag)
			}
			if stall := spans.DepositStall(); stall.Count > 0 {
				fmt.Printf("  deposit stall (ms):  %s\n", stall)
			}
		}
	}
	if *statsJSON != "" {
		out, err := snap.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydranet-sim: -stats-json: %v\n", err)
			os.Exit(1)
		}
		out = append(out, '\n')
		if *statsJSON == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(*statsJSON, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hydranet-sim: -stats-json: %v\n", err)
			os.Exit(1)
		}
	}
	if profiler != nil {
		if err := profiler.WriteFile(*profPath); err != nil {
			fmt.Fprintf(os.Stderr, "hydranet-sim: -prof: %v\n", err)
			os.Exit(1)
		}
		logf("hydraprof profile written to %s (render with: hydrascope profile %s)", *profPath, *profPath)
	}
	auditClean := true
	if mon != nil {
		audit := net.FinishAudit(mon)
		auditClean = audit.Clean
		if audit.Clean {
			fmt.Printf("\ninvariants: clean (%d checks over %d events, %d frames)\n",
				audit.Checks, audit.Events, audit.Frames)
		} else {
			fmt.Printf("\ninvariants: %d VIOLATIONS (%d checks over %d events):\n",
				audit.TotalViolations(), audit.Checks, audit.Events)
			for _, v := range audit.Violations {
				fmt.Printf("  %s\n", v)
			}
		}
		if *auditPath != "" {
			if err := audit.WriteJSON(*auditPath); err != nil {
				fmt.Fprintf(os.Stderr, "hydranet-sim: -audit: %v\n", err)
				os.Exit(1)
			}
			logf("audit report written to %s (render with: hydrascope audit %s)", *auditPath, *auditPath)
		}
	}
	if *verbose {
		fmt.Printf("\nvirtual time elapsed: %v\n", net.Now())
	}
	if err := stopPprof(); err != nil {
		fmt.Fprintf(os.Stderr, "hydranet-sim: pprof: %v\n", err)
		os.Exit(1)
	}
	if received < *bytes || !auditClean {
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
