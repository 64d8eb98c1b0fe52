package testbed

import (
	"fmt"
	"os"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/core"
	"hydranet/internal/rmp"
	"hydranet/internal/ttcp"
)

// FailoverConfig parameterizes a failover-latency measurement (ablation A1:
// the paper's Section 4.3 trade-off between detection latency and false
// positives, swept over the retransmission threshold).
type FailoverConfig struct {
	// Threshold is the detector's retransmission threshold.
	Threshold int
	// Backups is the number of backup replicas (default 1).
	Backups int
	// Seed drives the simulation.
	Seed int64
	// CrashAt is when the primary is killed, relative to the start of the
	// client's stream (default 500 ms).
	CrashAt time.Duration
	// Loss, if nonzero, adds random loss to every link — for measuring
	// false positives under congestion-like conditions.
	Loss float64
	// NoCrash keeps every host alive: the run measures detector false
	// positives (suspicions and wrongful reconfigurations) only.
	NoCrash bool
	// PcapPath, if set, captures every frame of the run (including the
	// redirector's pre-encap tunnel copies) to this pcap file.
	PcapPath string
	// FlightPrefix, if set, runs a flight recorder dumped to
	// FlightPrefix.pcap/.json when the failover probe fires (or at the end
	// of the run if it never does).
	FlightPrefix string
	// SpansPath, if set, writes the per-connection span timeline JSON here.
	SpansPath string
	// SeriesPath, if set, exports sampled time series for the run (JSONL,
	// or CSV if the path ends in .csv), including per-replica health
	// verdicts from the gray-failure scorer and the failover phase report.
	SeriesPath string
	// SampleEvery is the telemetry sampling cadence (default 100 ms of
	// virtual time). Used only with SeriesPath.
	SampleEvery time.Duration
	// ProfilePath, if set, writes a hydraprof profile of the run (detection
	// and recovery included; see hydranet.StartProfile) to this file.
	ProfilePath string
	// Invariants attaches the online protocol-invariant monitor; violation
	// counts land in FailoverResult.Violations.
	Invariants bool
	// AuditPath, if set, writes the monitor's audit report as JSON here
	// (implies Invariants).
	AuditPath string
}

// FailoverResult reports what happened.
type FailoverResult struct {
	// Detected is when the redirector completed reconfiguration after the
	// crash (zero if never).
	Detected time.Duration
	// Resumed is when the client received its first post-crash byte (zero
	// if never).
	Resumed time.Duration
	// Suspicions counts detector trips across all replicas.
	Suspicions uint64
	// FalseReconfigs counts reconfigurations that removed a live host.
	FalseReconfigs int
	// Delivered is the total number of bytes echoed back to the client.
	Delivered int
	// ClientError is non-nil if the client connection broke — a failure of
	// transparency.
	ClientError error
	// Violations counts protocol-invariant violations (0 unless
	// FailoverConfig.Invariants or AuditPath enabled the monitor).
	Violations int
}

// MeasureFailover streams continuously through a replicated echo service,
// kills the primary mid-stream, and measures detection and resume latency
// at the client.
func MeasureFailover(cfg FailoverConfig) FailoverResult {
	if cfg.Backups == 0 {
		cfg.Backups = 1
	}
	if cfg.CrashAt == 0 {
		cfg.CrashAt = 500 * time.Millisecond
	}
	link := testbedLink
	link.Loss = cfg.Loss
	tcpCfg := hydranet.TCPConfig{
		MSS: 1460, SendBufSize: 16384, RecvBufSize: 16384,
		DelayedAckTimeout: 200 * time.Millisecond,
	}
	net := hydranet.New(hydranet.Config{Seed: cfg.Seed, TCP: tcpCfg})
	client := net.AddHost("client", hydranet.HostConfig{ProcDelay: client486Proc, ProcPerByte: client486PerByte})
	rd := net.AddRedirector("rd", hydranet.HostConfig{ProcDelay: router486Proc, ProcPerByte: router486PerByte})
	var replicas []*hydranet.Host
	for i := 0; i < 1+cfg.Backups; i++ {
		replicas = append(replicas, net.AddHost("s"+string(rune('0'+i)),
			hydranet.HostConfig{ProcDelay: pentiumProc, ProcPerByte: pentiumPerByte}))
	}
	all := append([]*hydranet.Host{rd.Host, client}, replicas...)
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			net.Link(all[i], all[j], link)
		}
	}
	net.AutoRoute()

	// The monitor attaches before DeployFT: it reconstructs membership from
	// registration events.
	var mon *hydranet.Monitor
	if cfg.Invariants || cfg.AuditPath != "" {
		mon = net.StartMonitor(hydranet.MonitorConfig{
			Scenario: fmt.Sprintf("failover threshold=%d backups=%d loss=%g", cfg.Threshold, cfg.Backups, cfg.Loss),
		})
	}

	// Capture subsystems attach after the topology is final, before any
	// traffic (registration included) hits the wire.
	var pcapFile *os.File
	if cfg.PcapPath != "" {
		f, err := os.Create(cfg.PcapPath)
		if err != nil {
			panic(err)
		}
		pcapFile = f
		if _, err := net.StartCapture(f); err != nil {
			panic(err)
		}
	}
	var flight *hydranet.FlightRecorder
	var probe *hydranet.FailoverProbe
	if cfg.FlightPrefix != "" || cfg.SeriesPath != "" {
		probe = net.NewFailoverProbe()
	}
	if cfg.FlightPrefix != "" {
		flight = net.StartFlightRecorder(0, 0)
		flight.DumpOnFailover(probe, cfg.FlightPrefix)
		if mon != nil {
			flight.DumpOnViolation(mon, cfg.FlightPrefix+"-violation")
		}
	}
	var spans *hydranet.SpanCollector
	if cfg.SpansPath != "" || cfg.SeriesPath != "" {
		spans = net.NewSpanCollector()
	}
	var tel *hydranet.Telemetry
	if cfg.SeriesPath != "" {
		tel = net.StartSampler(hydranet.SamplerConfig{
			Every:  cfg.SampleEvery,
			Spans:  spans,
			Health: &hydranet.HealthConfig{},
		})
		tel.AttachFailover(probe)
		tel.WatchReplicas(replicas...)
	}

	svc := hydranet.ServiceID{Addr: ServiceAddr, Port: ServicePort}
	opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: cfg.Threshold}}
	ftsvc, err := net.DeployFT(svc, rd, replicas, opts, func(c *hydranet.Conn) { app.Echo(c) })
	if err != nil {
		panic(err)
	}
	net.Settle()

	// Attach after registration settles, so the profile covers the stream,
	// the crash, detection and recovery — the phases the report attributes.
	var profiler *hydranet.Profiler
	if cfg.ProfilePath != "" {
		profiler = net.StartProfile(hydranet.ProfileConfig{
			Scenario: fmt.Sprintf("failover threshold=%d", cfg.Threshold),
		})
	}

	var res FailoverResult
	var crashTime time.Duration
	rd.Daemon().OnReconfig(func(_ core.ServiceID, failed []hydranet.Addr) {
		genuine := false
		for _, f := range failed {
			for _, h := range replicas {
				if h.Addr() == f && !h.Alive() {
					genuine = true
				}
			}
		}
		if genuine {
			if res.Detected == 0 && crashTime > 0 {
				res.Detected = net.Now() - crashTime
			}
		} else {
			res.FalseReconfigs++
		}
	})

	conn, err := client.Dial(svc)
	if err != nil {
		panic(err)
	}
	conn.OnClosed(func(err error) { res.ClientError = err })
	buf := make([]byte, 2048)
	conn.OnReadable(func() {
		for {
			n := conn.Read(buf)
			if n == 0 {
				break
			}
			res.Delivered += n
			if crashTime > 0 && res.Resumed == 0 {
				res.Resumed = net.Now() - crashTime
			}
		}
	})
	// A continuous stream: the echo keeps flowing both ways.
	payload := make([]byte, 4<<20)
	app.Source(conn, payload, false)

	net.RunFor(cfg.CrashAt)
	if !cfg.NoCrash {
		crashTime = net.Now()
		ftsvc.CrashPrimary()
	}
	// Run long enough for worst-case detection (threshold retransmissions
	// under exponential backoff) plus recovery.
	net.RunFor(4 * time.Minute)

	for _, h := range replicas {
		res.Suspicions += h.FTManager().Stats().Suspicions
	}
	if pcapFile != nil {
		if err := pcapFile.Close(); err != nil {
			panic(err)
		}
	}
	if flight != nil && flight.Dumps() == 0 {
		if err := flight.Dump(cfg.FlightPrefix); err != nil {
			panic(err)
		}
	}
	if spans != nil && cfg.SpansPath != "" {
		f, err := os.Create(cfg.SpansPath)
		if err != nil {
			panic(err)
		}
		if err := spans.WriteJSON(f); err != nil {
			f.Close()
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
	}
	if tel != nil {
		tel.Stop()
		if err := tel.WriteFile(cfg.SeriesPath); err != nil {
			panic(err)
		}
	}
	if profiler != nil {
		if err := profiler.WriteFile(cfg.ProfilePath); err != nil {
			panic(err)
		}
	}
	if mon != nil {
		audit := net.FinishAudit(mon)
		res.Violations = int(audit.TotalViolations())
		if cfg.AuditPath != "" {
			if err := audit.WriteJSON(cfg.AuditPath); err != nil {
				panic(err)
			}
		}
	}
	return res
}

// CongestionResult reports a congested-backup scenario (ablation A5).
type CongestionResult struct {
	// Completed reports whether the client's transfer finished.
	Completed bool
	// Elapsed is the transfer duration (valid when Completed).
	Elapsed time.Duration
	// Evictions counts congestion-based removals at the redirector.
	Evictions uint64
	// ClientError is the client connection's fate (nil or timeout).
	ClientError error
}

// MeasureCongestionEviction runs a fixed transfer through a primary+backup
// service whose backup's acknowledgment channel dies mid-transfer (severe
// congestion: the host is alive but stalls the chain). policyStrikes > 0
// enables the redirector's congestion-eviction policy with that strike
// count; 0 leaves it disabled, which strands the transfer — the trade-off
// the paper's introduction motivates.
func MeasureCongestionEviction(policyStrikes int, seed int64) CongestionResult {
	tcpCfg := hydranet.TCPConfig{
		MSS: 1460, SendBufSize: 16384, RecvBufSize: 16384,
		DelayedAckTimeout: 200 * time.Millisecond,
		TimeWaitDuration:  time.Millisecond,
	}
	net := hydranet.New(hydranet.Config{Seed: seed, TCP: tcpCfg})
	client := net.AddHost("client", hydranet.HostConfig{ProcDelay: client486Proc, ProcPerByte: client486PerByte})
	rd := net.AddRedirector("rd", hydranet.HostConfig{ProcDelay: router486Proc, ProcPerByte: router486PerByte})
	s0 := net.AddHost("s0", hydranet.HostConfig{ProcDelay: pentiumProc, ProcPerByte: pentiumPerByte})
	s1 := net.AddHost("s1", hydranet.HostConfig{ProcDelay: pentiumProc, ProcPerByte: pentiumPerByte})
	all := []*hydranet.Host{rd.Host, client, s0, s1}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			net.Link(all[i], all[j], testbedLink)
		}
	}
	net.AutoRoute()
	svc := hydranet.ServiceID{Addr: ServiceAddr, Port: ServicePort}
	opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: 2}}
	if _, err := net.DeployFT(svc, rd, []*hydranet.Host{s0, s1}, opts,
		func(c *hydranet.Conn) { ttcp.Sink(c) }); err != nil {
		panic(err)
	}
	if policyStrikes > 0 {
		rd.Daemon().SetCongestionPolicy(rmp.CongestionPolicy{
			Strikes: policyStrikes, Window: 2 * time.Minute,
		})
	}
	net.Settle()

	conn, err := client.DialEndpoint(hydranet.Endpoint{Addr: ServiceAddr, Port: ServicePort})
	if err != nil {
		panic(err)
	}
	var res CongestionResult
	done := false
	ttcp.Transmit(client.Scheduler(), conn, ttcp.Params{BufLen: 1024, TotalBytes: 512 * 1024},
		func(r ttcp.Result) {
			res.Completed = r.Err == nil
			res.Elapsed = r.Elapsed()
			res.ClientError = r.Err
			done = true
		})
	net.RunFor(200 * time.Millisecond)
	s1.FTManager().SetChainLoss(1.0) // the backup's channel dies

	deadline := net.Now() + 20*time.Minute
	for !done && net.Now() < deadline {
		net.RunFor(time.Second)
	}
	res.Evictions = rd.Daemon().Stats().CongestionEvictions
	return res
}
