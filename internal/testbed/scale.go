package testbed

import (
	"fmt"
	"time"

	"hydranet"
	"hydranet/internal/ttcp"
)

// ScaleConfig parameterizes RunScale: a scaling workload of independent
// service pods — each a client, a redirector, and a primary/backup replica
// pair — joined by a higher-delay backbone ring between the redirectors.
// The delay structure makes each pod one synchronization domain (the
// backbone's propagation delay is the cut, and the lookahead window), so
// the workload parallelizes across pods while remaining one deterministic
// simulation.
type ScaleConfig struct {
	// Pods is the number of client/redirector/primary/backup pods
	// (default 4).
	Pods int
	// Workers is the worker-thread count (see hydranet.SetWorkers); 0 or 1
	// runs the untouched serial scheduler as the baseline.
	Workers int
	// BufLen is the per-pod ttcp write size (default 1024).
	BufLen int
	// TotalBytes is the per-pod transfer volume (default 512 KiB).
	TotalBytes int
	// Seed is the simulation seed.
	Seed int64
	// ProfilePath, if set, writes a hydraprof profile of the transfers
	// (per-domain utilization, hand-off matrix, causal critical path; see
	// hydranet.StartProfile) to this file.
	ProfilePath string
	// Invariants attaches the online protocol-invariant monitor; violation
	// counts land in ScaleResult.Violations.
	Invariants bool
	// AuditPath, if set, writes the monitor's audit report as JSON here
	// (implies Invariants).
	AuditPath string
}

// ScaleResult reports one RunScale execution.
type ScaleResult struct {
	Pods    int `json:"pods"`
	Domains int `json:"domains"`
	Workers int `json:"workers"`
	// AggKBps is the aggregate client-observed throughput over all pods —
	// a simulation observable, identical for every worker count.
	AggKBps float64 `json:"agg_kbps"`
	// Events is the total number of fired simulation events.
	Events uint64 `json:"events"`
	// Frames is the total number of fabric frames sent.
	Frames uint64 `json:"frames"`
	// Handoffs and MergeTies report cross-domain fabric activity.
	Handoffs  uint64 `json:"handoffs"`
	MergeTies uint64 `json:"merge_ties"`
	// Wall is host wall-clock time for the run loop — the quantity the
	// parallel core exists to shrink.
	Wall time.Duration `json:"wall_ns"`
	// Violations counts protocol-invariant violations (0 unless
	// ScaleConfig.Invariants or AuditPath enabled the monitor; omitted from
	// JSON when the monitor was off, keeping committed baselines stable).
	Violations int `json:"violations,omitempty"`
}

// backboneLink joins neighboring pod redirectors: ten times the intra-pod
// propagation delay, so the automatic partition cuts exactly these links.
var backboneLink = hydranet.LinkConfig{
	Rate:       100_000_000,
	Delay:      time.Millisecond,
	MTU:        1500,
	QueueBytes: 64 * 1024,
}

// RunScale builds the pod topology, partitions it across cfg.Workers worker
// threads, runs one ttcp transfer per pod concurrently, and reports
// aggregate throughput plus execution metrics. The virtual results are
// worker-count-invariant; only Wall varies.
func RunScale(cfg ScaleConfig) ScaleResult {
	if cfg.Pods == 0 {
		cfg.Pods = 4
	}
	if cfg.BufLen == 0 {
		cfg.BufLen = 1024
	}
	if cfg.TotalBytes == 0 {
		cfg.TotalBytes = 512 * 1024
	}

	net := hydranet.New(hydranet.Config{Seed: cfg.Seed, TCP: hydranet.TCPConfig{
		MSS:               1460,
		SendBufSize:       16384,
		RecvBufSize:       16384,
		DelayedAckTimeout: 200 * time.Millisecond,
		TimeWaitDuration:  time.Millisecond,
	}})

	clientCfg := hydranet.HostConfig{ProcDelay: client486Proc, ProcPerByte: client486PerByte}
	routerCfg := hydranet.HostConfig{ProcDelay: router486Proc + redirectorSWCost, ProcPerByte: router486PerByte}
	serverCfg := hydranet.HostConfig{ProcDelay: pentiumProc + ftStackCost, ProcPerByte: pentiumPerByte}

	type pod struct {
		client   *hydranet.Host
		rd       *hydranet.Redirector
		replicas []*hydranet.Host
		svc      hydranet.ServiceID
	}
	pods := make([]pod, cfg.Pods)
	for i := range pods {
		p := &pods[i]
		p.client = net.AddHost(fmt.Sprintf("c%d", i), clientCfg)
		p.rd = net.AddRedirector(fmt.Sprintf("rd%d", i), routerCfg)
		p.replicas = []*hydranet.Host{
			net.AddHost(fmt.Sprintf("s%da", i), serverCfg),
			net.AddHost(fmt.Sprintf("s%db", i), serverCfg),
		}
		net.Link(p.client, p.rd.Host, testbedLink)
		for _, r := range p.replicas {
			net.Link(r, p.rd.Host, testbedLink)
		}
		p.svc = hydranet.ServiceID{
			Addr: hydranet.MustAddr(fmt.Sprintf("192.20.225.%d", 20+i)),
			Port: ServicePort,
		}
	}
	for i := 1; i < len(pods); i++ {
		net.Link(pods[i-1].rd.Host, pods[i].rd.Host, backboneLink)
	}
	if len(pods) > 2 {
		net.Link(pods[len(pods)-1].rd.Host, pods[0].rd.Host, backboneLink)
	}
	net.AutoRoute()

	if cfg.Workers > 1 {
		if err := net.SetWorkers(cfg.Workers); err != nil {
			panic(fmt.Sprintf("testbed: scale partition: %v", err))
		}
	}

	// The monitor attaches after the partition and before the pods deploy:
	// it must see every pod's registrations. The label omits the worker
	// count so audits diff byte-identical across Workers.
	var mon *hydranet.Monitor
	if cfg.Invariants || cfg.AuditPath != "" {
		mon = net.StartMonitor(hydranet.MonitorConfig{
			Scenario: fmt.Sprintf("scale pods=%d", cfg.Pods),
		})
	}

	for i := range pods {
		p := &pods[i]
		if _, err := net.DeployFT(p.svc, p.rd, p.replicas, hydranet.FTOptions{},
			func(c *hydranet.Conn) { ttcp.Sink(c) }); err != nil {
			panic(fmt.Sprintf("testbed: scale deploy pod %d: %v", i, err))
		}
	}
	net.Settle()

	// Attach after registration settles: the profile's event and
	// critical-path baselines then cover exactly the measured transfers.
	var profiler *hydranet.Profiler
	if cfg.ProfilePath != "" {
		profiler = net.StartProfile(hydranet.ProfileConfig{
			Scenario: fmt.Sprintf("scale pods=%d workers=%d", cfg.Pods, cfg.Workers),
		})
	}

	// Each pod's completion callback runs in that pod's synchronization
	// domain, possibly on its own worker: it writes only its own slot, and
	// the coordinator reads the slots between windows.
	kbps := make([]float64, len(pods))
	finished := make([]bool, len(pods))
	unfinished := func() int {
		n := 0
		for _, f := range finished {
			if !f {
				n++
			}
		}
		return n
	}
	for i := range pods {
		i := i
		p := &pods[i]
		conn, err := p.client.DialEndpoint(hydranet.Endpoint{Addr: p.svc.Addr, Port: p.svc.Port})
		if err != nil {
			panic(fmt.Sprintf("testbed: scale dial pod %d: %v", i, err))
		}
		ttcp.Transmit(p.client.Scheduler(), conn,
			ttcp.Params{BufLen: cfg.BufLen, TotalBytes: cfg.TotalBytes},
			func(r ttcp.Result) { kbps[i], finished[i] = r.ThroughputKBps(), true })
	}

	start := time.Now()
	deadline := net.Now() + 30*time.Minute
	for unfinished() > 0 && net.Now() < deadline {
		net.RunFor(time.Second)
	}
	wall := time.Since(start)
	if n := unfinished(); n > 0 {
		panic(fmt.Sprintf("testbed: scale run wedged with %d pods unfinished", n))
	}
	if profiler != nil {
		if err := profiler.WriteFile(cfg.ProfilePath); err != nil {
			panic(err)
		}
	}

	var aggKBps float64
	for _, k := range kbps {
		aggKBps += k
	}
	domains, workers := net.Parallel()
	res := ScaleResult{
		Pods:      cfg.Pods,
		Domains:   domains,
		Workers:   workers,
		AggKBps:   aggKBps,
		Events:    net.EventsFired(),
		Handoffs:  net.Handoffs(),
		MergeTies: net.MergeTies(),
		Wall:      wall,
	}
	for _, h := range net.Snapshot().Hosts {
		res.Frames += h.Frames.Sent
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
