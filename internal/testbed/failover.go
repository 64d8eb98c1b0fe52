package testbed

import (
	"fmt"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/core"
	"hydranet/internal/rmp"
	"hydranet/internal/ttcp"
)

// crashAt is when MeasureFailover kills the primary, relative to the start of
// the client's stream.
const crashAt = 500 * time.Millisecond

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
	// Loss, if nonzero, adds random loss to every link — for measuring
	// false positives under congestion-like conditions.
	Loss float64
	// NoCrash keeps every host alive: the run measures detector false
	// positives (suspicions and wrongful reconfigurations) only.
	NoCrash bool
	// Observe selects the run's observers and artifact files; they attach
	// once the topology stands, before the service registers.
	Observe hydranet.Instruments
	// FlightPrefix and SpansPath are the names bench/ compiles against;
	// MeasureFailover folds SpansPath into Observe (DESIGN.md §11) and
	// ignores FlightPrefix, which names no observer.
	FlightPrefix, SpansPath string
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
	// Violations counts protocol-invariant violations (0 unless the run was
	// monitored).
	Violations int
	// ObserveErr is what attaching or flushing the run's observers reported
	// (an unwritable artifact); without observers attached nothing ran.
	ObserveErr error
}

// MeasureFailover streams continuously through a replicated echo service,
// kills the primary mid-stream, and measures detection and resume latency
// at the client.
func MeasureFailover(cfg FailoverConfig) FailoverResult {
	if cfg.Backups == 0 {
		cfg.Backups = 1
	}
	link := testbedLink
	link.Loss = cfg.Loss
	tcpCfg := hydranet.TCPConfig{
		MSS: 1460, SendBufSize: 16384, RecvBufSize: 16384,
		DelayedAckTimeout: 200 * time.Millisecond,
	}
	net, client, rd, replicas := lan(cfg.Seed, tcpCfg, link, machineModel(1, false), 1+cfg.Backups)

	in := cfg.Observe
	in.Scenario = fmt.Sprintf("failover threshold=%d backups=%d loss=%g", cfg.Threshold, cfg.Backups, cfg.Loss)
	in.Spans = firstOf(in.Spans, cfg.SpansPath)
	sess, err := net.Instrument(in)
	if err != nil {
		return FailoverResult{ObserveErr: err}
	}

	svc := hydranet.ServiceID{Addr: ServiceAddr, Port: ServicePort}
	opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: cfg.Threshold}}
	ftsvc, err := net.DeployFT(svc, rd, replicas, opts, func(c *hydranet.Conn) { app.Echo(c) })
	if err != nil {
		panic(err)
	}
	net.Settle()

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

	net.RunFor(crashAt)
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
	sum, err := sess.Finish()
	res.ObserveErr = err
	if sum.Audit != nil {
		res.Violations = int(sum.Audit.TotalViolations())
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
	// Violations and ObserveErr are as in FailoverResult.
	Violations int
	ObserveErr error
}

// MeasureCongestionEviction runs a fixed transfer through a primary+backup
// service whose backup's acknowledgment channel dies mid-transfer (severe
// congestion: the host is alive but stalls the chain). policyStrikes > 0
// enables the redirector's congestion-eviction policy with that strike
// count; 0 leaves it disabled, which strands the transfer — the trade-off
// the paper's introduction motivates. The observers attach once the topology
// stands, before the service registers.
func MeasureCongestionEviction(policyStrikes int, seed int64, observe hydranet.Instruments) CongestionResult {
	tcpCfg := hydranet.TCPConfig{
		MSS: 1460, SendBufSize: 16384, RecvBufSize: 16384,
		DelayedAckTimeout: 200 * time.Millisecond,
		TimeWaitDuration:  time.Millisecond,
	}
	net, client, rd, replicas := lan(seed, tcpCfg, testbedLink, machineModel(1, false), 2)
	observe.Scenario = fmt.Sprintf("congestion eviction strikes=%d", policyStrikes)
	sess, err := net.Instrument(observe)
	if err != nil {
		return CongestionResult{ObserveErr: err}
	}
	svc := hydranet.ServiceID{Addr: ServiceAddr, Port: ServicePort}
	opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: 2}}
	if _, err := net.DeployFT(svc, rd, replicas, opts,
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
			done = true
		})
	net.RunFor(200 * time.Millisecond)
	replicas[1].FTManager().SetChainLoss(1.0) // the backup's channel dies

	deadline := net.Now() + 20*time.Minute
	for !done && net.Now() < deadline {
		net.RunFor(time.Second)
	}
	res.Evictions = rd.Daemon().Stats().CongestionEvictions
	sum, err := sess.Finish()
	res.ObserveErr = err
	if sum.Audit != nil {
		res.Violations = int(sum.Audit.TotalViolations())
	}
	return res
}
