// Package testbed models the paper's measurement testbed (Section 5): two
// Pentium/120 PCs as primary and backup host servers, a 486 PC as the
// redirector/router, and a 486 PC as the client, joined by 10 Mbit/s links.
// It builds each of Figure 4's four configurations and runs ttcp transfers
// over them.
//
// The machine model charges per-packet and per-byte CPU costs calibrated so
// the clean-kernel curve lands in the few-hundred-kB/s range the paper
// reports for this hardware; the relationships between the four curves —
// who wins and by roughly what factor — are produced by the protocol
// mechanics, not by per-case tuning.
package testbed

import (
	"fmt"
	"os"
	"time"

	"hydranet"
	"hydranet/internal/ttcp"
)

// Case selects one of the paper's four measurement configurations.
type Case int

// Figure 4's four measurement series.
const (
	// CaseClean: unmodified software, no redirection — the baseline.
	CaseClean Case = iota + 1
	// CaseNoRedirection: HydraNet-FT software installed everywhere but no
	// service replicated; measures the fixed cost of the modified stacks.
	CaseNoRedirection
	// CasePrimaryOnly: the service address belongs to no physical host; the
	// redirector tunnels every packet to a single primary replica;
	// measures the redirection penalty.
	CasePrimaryOnly
	// CasePrimaryBackup: full fault-tolerant mode with the redirector
	// multicasting to a primary and backups synchronized over the
	// acknowledgment channel.
	CasePrimaryBackup
)

// String names the case as in the paper's legend.
func (c Case) String() string {
	switch c {
	case CaseClean:
		return "clean kernel"
	case CaseNoRedirection:
		return "no redirection"
	case CasePrimaryOnly:
		return "primary only"
	case CasePrimaryBackup:
		return "primary and backup"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// Machine model: CPU costs per packet and per byte.
//
// The 486 figures make the client the end-system bottleneck and the 486
// redirector the path bottleneck once it must process every frame twice
// (in and out), as on the paper's testbed.
const (
	client486Proc    = 300 * time.Microsecond
	client486PerByte = 1300 * time.Nanosecond

	router486Proc    = 250 * time.Microsecond
	router486PerByte = 750 * time.Nanosecond

	pentiumProc    = 150 * time.Microsecond
	pentiumPerByte = 350 * time.Nanosecond

	// Costs of the HydraNet-FT software itself: the redirector-table check
	// in the router's forwarding path and the replicated-port checks in
	// the host-server TCP stack.
	redirectorSWCost = 25 * time.Microsecond
	ftStackCost      = 20 * time.Microsecond
)

// Link parameters: 10 Mbit/s Ethernet-class links.
var testbedLink = hydranet.LinkConfig{
	Rate:       10_000_000,
	Delay:      100 * time.Microsecond,
	MTU:        1500,
	QueueBytes: 32 * 1024,
}

// Config parameterizes one measurement run.
type Config struct {
	Case       Case
	BufLen     int   // ttcp write size ("packet size")
	TotalBytes int   // transfer volume; default 512 KiB
	Seed       int64 // simulation seed
	// Backups is the number of backup replicas in CasePrimaryBackup
	// (default 1, the paper's setup).
	Backups int
	// AckChannelLoss drops that fraction of acknowledgment-channel
	// messages (ablation A3).
	AckChannelLoss float64
	// MTU overrides the link MTU (ablation A4). Zero keeps 1500.
	MTU int
	// CPUScale multiplies every machine's CPU costs (robustness checks:
	// the figure's qualitative shape must not depend on the calibration
	// constants). Zero means 1.0.
	CPUScale float64
	// PcapPath, if set, captures the measured transfer — every fabric
	// frame plus the redirector's pre-encapsulation tunnel copies — to
	// this pcap file.
	PcapPath string
	// SeriesPath, if set, exports sampled time series for the measured
	// transfer (JSONL, or CSV if the path ends in .csv).
	SeriesPath string
	// SampleEvery is the telemetry sampling cadence (default 100 ms of
	// virtual time). Used only with SeriesPath.
	SampleEvery time.Duration
	// ProfilePath, if set, writes a hydraprof profile of the measured
	// transfer (causal critical path; see hydranet.StartProfile) to this
	// file.
	ProfilePath string
	// Invariants attaches the online protocol-invariant monitor; violation
	// counts land in RunInfo.Violations.
	Invariants bool
	// AuditPath, if set, writes the monitor's audit report as JSON here
	// (implies Invariants).
	AuditPath string
}

// ServiceAddr is the replicated service's virtual address — a host that
// does not physically exist, as in the paper's "primary only" experiment.
var ServiceAddr = hydranet.MustAddr("192.20.225.20")

// ServicePort is the replicated TCP port.
const ServicePort = 5001 // ttcp's traditional port

// RunInfo reports the execution cost of one testbed run, for tracking the
// simulator's own performance (events/sec is the core metric the fast path
// optimizes).
type RunInfo struct {
	Events uint64        // scheduler events fired
	Frames uint64        // fabric frames sent, summed over all nodes
	Wall   time.Duration // host wall-clock time for the run
	// Violations counts protocol-invariant violations (0 unless
	// Config.Invariants or AuditPath enabled the monitor).
	Violations int
}

// RunMeasured is Run plus execution metrics.
func RunMeasured(cfg Config) (ttcp.Result, RunInfo) {
	start := time.Now()
	result, net, audit := run(cfg)
	info := RunInfo{Wall: time.Since(start), Events: net.EventsFired()}
	for _, h := range net.Snapshot().Hosts {
		info.Frames += h.Frames.Sent
	}
	if audit != nil {
		info.Violations = int(audit.TotalViolations())
	}
	return result, info
}

// Run executes one ttcp transfer in the given configuration and returns
// the client-side result.
func Run(cfg Config) ttcp.Result {
	result, _, _ := run(cfg)
	return result
}

func run(cfg Config) (ttcp.Result, *hydranet.Net, *hydranet.AuditReport) {
	if cfg.TotalBytes == 0 {
		cfg.TotalBytes = 512 * 1024
	}
	if cfg.Backups == 0 {
		cfg.Backups = 1
	}
	link := testbedLink
	if cfg.MTU != 0 {
		link.MTU = cfg.MTU
	}

	tcpCfg := hydranet.TCPConfig{
		MSS:               1460,
		SendBufSize:       16384,
		RecvBufSize:       16384,
		DelayedAckTimeout: 200 * time.Millisecond,
		// Keep the measurement window tight: the transfer ends when the
		// client's FIN handshake completes, so TIME-WAIT must not extend
		// the measured interval.
		TimeWaitDuration: time.Millisecond,
	}
	if cfg.MTU != 0 && cfg.MTU < 1500 {
		tcpCfg.MSS = cfg.MTU - 40
	}
	net := hydranet.New(hydranet.Config{Seed: cfg.Seed, TCP: tcpCfg})

	modified := cfg.Case != CaseClean
	scale := cfg.CPUScale
	if scale == 0 {
		scale = 1
	}
	mul := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * scale)
	}
	clientCfg := hydranet.HostConfig{ProcDelay: mul(client486Proc), ProcPerByte: mul(client486PerByte)}
	routerCfg := hydranet.HostConfig{ProcDelay: mul(router486Proc), ProcPerByte: mul(router486PerByte)}
	serverCfg := hydranet.HostConfig{ProcDelay: mul(pentiumProc), ProcPerByte: mul(pentiumPerByte)}
	if modified {
		routerCfg.ProcDelay += mul(redirectorSWCost)
		serverCfg.ProcDelay += mul(ftStackCost)
	}

	client := net.AddHost("client", clientCfg)

	var result ttcp.Result
	done := false
	runTransfer := func(target hydranet.Endpoint) {
		conn, err := client.DialEndpoint(target)
		if err != nil {
			panic(fmt.Sprintf("testbed: dial: %v", err))
		}
		ttcp.Transmit(client.Scheduler(), conn,
			ttcp.Params{BufLen: cfg.BufLen, TotalBytes: cfg.TotalBytes},
			func(r ttcp.Result) { result = r; done = true })
	}

	// The testbed is one Ethernet segment: all machines are mutually
	// adjacent, and only traffic for redirected (virtual) addresses flows
	// through the redirector, which acts as the LAN's gateway for them.
	// Return traffic and the acknowledgment channel go host-to-host, as
	// the paper notes ("there is no need for redirectors to handle
	// messages directed from servers to clients").
	var mon *hydranet.Monitor
	mesh := func(hosts ...*hydranet.Host) {
		for i := 0; i < len(hosts); i++ {
			for j := i + 1; j < len(hosts); j++ {
				net.Link(hosts[i], hosts[j], link)
			}
		}
		net.AutoRoute()
		// The monitor attaches before the case deploys anything: it must
		// see the registration events.
		if cfg.Invariants || cfg.AuditPath != "" {
			mon = net.StartMonitor(hydranet.MonitorConfig{
				Scenario: fmt.Sprintf("figure4 %s buf=%d", cfg.Case, cfg.BufLen),
			})
		}
	}

	switch cfg.Case {
	case CaseClean, CaseNoRedirection:
		var router *hydranet.Host
		if cfg.Case == CaseClean {
			router = net.AddRouter("router", routerCfg)
		} else {
			// The redirector software runs but its table stays empty.
			rd := net.AddRedirector("rd", routerCfg)
			router = rd.Host
		}
		server := net.AddHost("server", serverCfg)
		mesh(client, router, server)
		lst, err := server.Listen(0, ServicePort)
		if err != nil {
			panic(err)
		}
		lst.SetAcceptFunc(func(c *hydranet.Conn) { ttcp.Sink(c) })
		runTransfer(hydranet.Endpoint{Addr: server.Addr(), Port: ServicePort})

	case CasePrimaryOnly, CasePrimaryBackup:
		rd := net.AddRedirector("rd", routerCfg)
		nReplicas := 1
		if cfg.Case == CasePrimaryBackup {
			nReplicas = 1 + cfg.Backups
		}
		var replicas []*hydranet.Host
		for i := 0; i < nReplicas; i++ {
			h := net.AddHost(fmt.Sprintf("s%d", i), serverCfg)
			replicas = append(replicas, h)
		}
		mesh(append([]*hydranet.Host{rd.Host, client}, replicas...)...)
		svc := hydranet.ServiceID{Addr: ServiceAddr, Port: ServicePort}
		if _, err := net.DeployFT(svc, rd, replicas, hydranet.FTOptions{},
			func(c *hydranet.Conn) { ttcp.Sink(c) }); err != nil {
			panic(err)
		}
		if cfg.AckChannelLoss > 0 {
			for _, h := range replicas {
				h.FTManager().SetChainLoss(cfg.AckChannelLoss)
			}
		}
		net.Settle()
		runTransfer(hydranet.Endpoint{Addr: ServiceAddr, Port: ServicePort})
	default:
		panic(fmt.Sprintf("testbed: unknown case %d", cfg.Case))
	}

	// The capture attaches after the topology (and its redirector, if any)
	// exists but before the scheduler runs the transfer: the dial above
	// only enqueued the SYN, so every frame of the measured stream is
	// still ahead of us.
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
	// The telemetry sampler attaches at the same point, for the same
	// reason: its first tick then covers the measured stream from byte 0.
	var tel *hydranet.Telemetry
	if cfg.SeriesPath != "" {
		tel = net.StartSampler(hydranet.SamplerConfig{Every: cfg.SampleEvery})
	}
	// So does the profiler: its event and critical-path baselines reset at
	// attach, so the profile covers exactly the measured transfer.
	var profiler *hydranet.Profiler
	if cfg.ProfilePath != "" {
		profiler = net.StartProfile(hydranet.ProfileConfig{
			Scenario: fmt.Sprintf("figure4 %s buf=%d", cfg.Case, cfg.BufLen),
		})
	}

	// Generous ceiling: slow small-packet runs take tens of virtual
	// seconds; a wedged run stops here instead of spinning forever.
	deadline := net.Now() + 30*time.Minute
	for !done && net.Now() < deadline {
		net.RunFor(time.Second)
	}
	if pcapFile != nil {
		if err := pcapFile.Close(); err != nil {
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
	var audit *hydranet.AuditReport
	if mon != nil {
		r := net.FinishAudit(mon)
		audit = &r
		if cfg.AuditPath != "" {
			if err := r.WriteJSON(cfg.AuditPath); err != nil {
				panic(err)
			}
		}
	}
	return result, net, audit
}

// Figure4Sizes are the paper's x-axis write sizes.
var Figure4Sizes = []int{16, 32, 64, 128, 256, 512, 1024}

// Figure4Cases are the paper's four series in legend order.
var Figure4Cases = []Case{CaseClean, CaseNoRedirection, CasePrimaryOnly, CasePrimaryBackup}
