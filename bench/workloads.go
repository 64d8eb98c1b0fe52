package main

// Every call the timed workloads make into the simulator is in this file,
// through the hydranet facade plus internal/app and internal/ttcp, so a
// refactor of the layers below the facade leaves the benchmark alone.
// internal/testbed appears only as the reference the scenarios here are
// checked against (referenceChecks) and as the attach surface for the
// observer-cost rows. ledger.go holds the per-layer batches, which by
// design call the layers directly.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/testbed"
	"hydranet/internal/ttcp"
)

// The paper's testbed (Section 5) as internal/testbed models it: 486
// client and router, Pentium servers, 10 Mbit/s Ethernet. The constants
// are unexported there, so they are repeated here; referenceChecks fails
// the run if the two ever disagree.
const (
	client486Proc    = 300 * time.Microsecond
	client486PerByte = 1300 * time.Nanosecond
	router486Proc    = 250 * time.Microsecond
	router486PerByte = 750 * time.Nanosecond
	pentiumProc      = 150 * time.Microsecond
	pentiumPerByte   = 350 * time.Nanosecond
	redirectorSWCost = 25 * time.Microsecond
	ftStackCost      = 20 * time.Microsecond
)

var (
	lanLink = hydranet.LinkConfig{Rate: 10_000_000, Delay: 100 * time.Microsecond, MTU: 1500, QueueBytes: 32 * 1024}
	// backboneLink joins the churn pods' redirectors, as in testbed.RunScale.
	backboneLink = hydranet.LinkConfig{Rate: 100_000_000, Delay: time.Millisecond, MTU: 1500, QueueBytes: 64 * 1024}

	clientCfg = hydranet.HostConfig{ProcDelay: client486Proc, ProcPerByte: client486PerByte}
	routerCfg = hydranet.HostConfig{ProcDelay: router486Proc, ProcPerByte: router486PerByte}
	serverCfg = hydranet.HostConfig{ProcDelay: pentiumProc, ProcPerByte: pentiumPerByte}
	// The same machines running the HydraNet-FT software.
	ftRouterCfg = hydranet.HostConfig{ProcDelay: router486Proc + redirectorSWCost, ProcPerByte: router486PerByte}
	ftServerCfg = hydranet.HostConfig{ProcDelay: pentiumProc + ftStackCost, ProcPerByte: pentiumPerByte}

	service = hydranet.ServiceID{Addr: testbed.ServiceAddr, Port: testbed.ServicePort}
)

func tcpConfig(timeWait time.Duration) hydranet.TCPConfig {
	return hydranet.TCPConfig{
		MSS: 1460, SendBufSize: 16384, RecvBufSize: 16384,
		DelayedAckTimeout: 200 * time.Millisecond,
		TimeWaitDuration:  timeWait,
	}
}

// params is what one repetition of a workload is given.
type params struct {
	seed int64
	// scale shrinks the fixed work; 1 is the benchmark's size. Tests and the
	// invariant-checked pass use a fraction.
	scale float64
	// monitor attaches the hydrainv monitor (never in a timed repetition).
	monitor bool
	// span opens a harness span under the current one and returns its end.
	span func(name string) func()
}

func (p params) scaled(n, floor int) int {
	if v := int(float64(n) * p.scale); v > floor {
		return v
	}
	return floor
}

// transferBytes is a ttcp workload's volume: base, scaled, plus up to 255
// extra writes drawn from the seed — ttcp has no other input the seed
// could vary.
func (p params) transferBytes(base, bufLen int) int {
	return p.scaled(base, 4096) + bufLen*rand.New(rand.NewSource(p.seed)).Intn(256)
}

// instance is one prepared repetition: prepare did everything the
// workload's users do not wait for, run is the timed fixed work, collect
// reads the results afterwards.
type instance interface {
	run()
	collect() outcome
}

// workload is one entry of BENCHMARK.json's "workloads".
type workload struct {
	name    string
	prepare func(p params) instance
}

var workloads = []workload{
	{"ft_small", func(p params) instance {
		return prepareTTCP(p, true, 16, p.transferBytes(1<<20, 16), p.scaled(128<<10, 0))
	}},
	{"clean_bulk", func(p params) instance {
		return prepareTTCP(p, false, 1024, p.transferBytes(192<<20, 1024), p.scaled(16<<20, 0))
	}},
	{"failover_sweep", func(p params) instance { return prepareFailover(p, foModes) }},
	{"churn", func(p params) instance { return prepareChurn(p, 1000, 100, 0) }},
}

// outcome is what one repetition produced. Everything in it except the
// host-side fields of counts is simulated, so it repeats exactly for a seed.
type outcome struct {
	attempted, failed int
	failures          []string // the first few, for the report
	goodputKBps       float64
	lat               latency
	latWhat           string  // what the latency samples are on this workload
	detectMsP50       float64 // failover_sweep only
	stalled           int     // churn only: operations aborted at the deadline
	virtualSeconds    float64
	violations        int
	counts            counts
	extra             map[string]float64 // further exact results, digest only
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// counts are the per-layer work counts of a timed section, summed over
// every host, link and redirector of every Net it used.
type counts struct {
	Events, Frames, Lost, QueueDrops                  uint64
	IPDelivered, IPForwarded, IPOriginated            uint64
	SegsIn, SegsOut, Retransmits, RTOEvents           uint64
	SegsSuppressed, Conns                             uint64
	ChainMsgsSent, Suspicions, Promotions             uint64
	Multicast, MulticastCopies, Redirected, PassedThr uint64
	Registrations, Reconfigs, ProbesSent              uint64
	AppBytes                                          uint64 // application bytes the clients moved
}

// add folds an interval snapshot (Snapshot.Diff) into c.
func (c *counts) add(s hydranet.Snapshot) {
	for _, h := range s.Hosts {
		c.Frames += h.Frames.Sent
		c.IPDelivered += h.IP.Delivered
		c.IPForwarded += h.IP.Forwarded
		c.IPOriginated += h.IP.Originated
		c.SegsIn += h.TCP.SegsIn
		c.SegsOut += h.TCP.SegsOut
		c.Conns += uint64(h.TCP.Conns) // a gauge: entries still in the tables
		c.Retransmits += h.Conns.Retransmits
		c.RTOEvents += h.Conns.RTOEvents
		c.SegsSuppressed += h.Conns.SegsSuppressed
		if m := h.Manager; m != nil {
			c.ChainMsgsSent += m.ChainMsgsSent
			c.Suspicions += m.Suspicions
			c.Promotions += m.Promotions
		}
	}
	for _, l := range s.Links {
		c.Lost += l.AB.Lost + l.BA.Lost
		c.QueueDrops += l.AB.QueueDrop + l.BA.QueueDrop
	}
	for _, r := range s.Redirectors {
		c.Multicast += r.Table.Multicast
		c.MulticastCopies += r.Table.MulticastCopies
		c.Redirected += r.Table.Redirected
		c.PassedThr += r.Table.PassedThrough
		if m := r.Mgmt; m != nil {
			c.Registrations += m.Registrations
			c.Reconfigs += m.Reconfigs
			c.ProbesSent += m.ProbesSent
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mesh(net *hydranet.Net, hosts ...*hydranet.Host) {
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			net.Link(hosts[i], hosts[j], lanLink)
		}
	}
	net.AutoRoute()
}

func startMonitor(net *hydranet.Net, on bool, scenario string) *hydranet.Monitor {
	if !on {
		return nil
	}
	return net.StartMonitor(hydranet.MonitorConfig{Scenario: scenario})
}

func finishAudit(net *hydranet.Net, mon *hydranet.Monitor) int {
	if mon == nil {
		return 0
	}
	return int(net.FinishAudit(mon).TotalViolations())
}

// ---- ft_small, clean_bulk: one Figure-4 ttcp transfer ----------------------

type ttcpInst struct {
	net      *hydranet.Net
	client   *hydranet.Host
	target   hydranet.Endpoint
	bufLen   int
	total    int
	replicas int
	sunk     []*int // bytes each server-side connection consumed
	mon      *hydranet.Monitor

	before       hydranet.Snapshot
	eventsBefore uint64
	res          ttcp.Result
}

// prepareTTCP builds Figure 4's "primary and backup" (ft) or "clean kernel"
// testbed exactly as testbed.Run does, and warms it with an untimed
// transfer of warm bytes on the same Net.
func prepareTTCP(p params, ft bool, bufLen, total, warm int) instance {
	t := &ttcpInst{bufLen: bufLen, total: total}
	t.net = hydranet.New(hydranet.Config{Seed: p.seed, TCP: tcpConfig(time.Millisecond)})
	t.client = t.net.AddHost("client", clientCfg)
	sink := func(c *hydranet.Conn) { t.sunk = append(t.sunk, ttcp.Sink(c)) }
	if ft {
		rd := t.net.AddRedirector("rd", ftRouterCfg)
		s0 := t.net.AddHost("s0", ftServerCfg)
		s1 := t.net.AddHost("s1", ftServerCfg)
		mesh(t.net, rd.Host, t.client, s0, s1)
		t.mon = startMonitor(t.net, p.monitor, "bench ttcp ft")
		if _, err := t.net.DeployFT(service, rd, []*hydranet.Host{s0, s1}, hydranet.FTOptions{}, sink); err != nil {
			panic(err)
		}
		t.net.Settle()
		t.target = hydranet.Endpoint{Addr: service.Addr, Port: service.Port}
		t.replicas = 2
	} else {
		router := t.net.AddRouter("router", routerCfg)
		server := t.net.AddHost("server", serverCfg)
		mesh(t.net, t.client, router, server)
		t.mon = startMonitor(t.net, p.monitor, "bench ttcp clean")
		lst, err := server.Listen(0, service.Port)
		if err != nil {
			panic(err)
		}
		lst.SetAcceptFunc(sink)
		t.target = hydranet.Endpoint{Addr: server.Addr(), Port: service.Port}
		t.replicas = 1
	}
	if warm > 0 {
		end := p.span("warmup")
		if r := t.transfer(warm); r.Err != nil {
			panic(fmt.Sprintf("bench: warm-up transfer: %v", r.Err))
		}
		end()
	}
	t.sunk = nil
	t.before, t.eventsBefore = t.net.Snapshot(), t.net.EventsFired()
	return t
}

func (t *ttcpInst) transfer(total int) ttcp.Result {
	conn, err := t.client.DialEndpoint(t.target)
	if err != nil {
		panic(fmt.Sprintf("bench: dial: %v", err))
	}
	var res ttcp.Result
	done := false
	ttcp.Transmit(t.client.Scheduler(), conn, ttcp.Params{BufLen: t.bufLen, TotalBytes: total},
		func(r ttcp.Result) { res, done = r, true })
	// A wedged transfer stops at the ceiling and is counted as failed.
	for ceiling := t.net.Now() + 48*time.Hour; !done && t.net.Now() < ceiling; {
		t.net.RunFor(time.Second)
	}
	if !done {
		res.Err = fmt.Errorf("transfer still open after 48 virtual hours")
	}
	return res
}

func (t *ttcpInst) run() { t.res = t.transfer(t.total) }

func (t *ttcpInst) collect() outcome {
	o := outcome{attempted: 1, latWhat: "client TCP RTT samples"}
	diff := t.net.Snapshot().Diff(t.before)
	o.counts.add(diff)
	o.counts.Events = t.net.EventsFired() - t.eventsBefore
	sent := (t.total + t.bufLen - 1) / t.bufLen * t.bufLen
	o.counts.AppBytes = uint64(t.res.Bytes)
	switch {
	case t.res.Err != nil:
		o.fail("transfer: %v", t.res.Err)
	case t.res.Bytes != sent:
		o.fail("client wrote %d of %d bytes", t.res.Bytes, sent)
	case len(t.sunk) != t.replicas:
		o.fail("%d server-side connections, want %d", len(t.sunk), t.replicas)
	default:
		for i, n := range t.sunk {
			if *n != sent {
				o.fail("replica connection %d consumed %d of %d bytes", i, *n, sent)
				break
			}
		}
	}
	o.goodputKBps = t.res.ThroughputKBps()
	o.virtualSeconds = t.res.Elapsed().Seconds()
	for _, h := range diff.Hosts {
		if h.Name == "client" && h.RTT != nil {
			// The stack's histogram is log-bucketed: a quantile is
			// interpolated within its bucket, as the stack's own P50 is.
			var buckets []bucket
			for _, b := range h.RTT.Buckets {
				buckets = append(buckets, bucket{b.Lo, b.Hi, b.Count})
			}
			o.lat = latency{Samples: int(h.RTT.Count), TailPct: tailPercentile(int(h.RTT.Count))}
			o.lat.P50 = bucketQuantile(buckets, 0.5)
			o.lat.Tail = bucketQuantile(buckets, o.lat.TailPct/100)
		}
	}
	o.violations = finishAudit(t.net, t.mon)
	return o
}

// ---- failover_sweep: crash, detection, reconfiguration, resume -------------

// foMode is one column of the sweep.
type foMode struct {
	name    string
	backups int
	victim  int // which replica is killed: 0 the primary, k the k-th backup
	loss    float64
	noCrash bool
}

// The timed sweep is lossless: the primary dies (promotion) or a backup
// does (the chain is respliced around it), with one or two backups.
var foModes = []foMode{
	{name: "primary_of_2", backups: 1},
	{name: "primary_of_3", backups: 2},
	{name: "backup_of_2", backups: 1, victim: 1},
	{name: "middle_of_3", backups: 2, victim: 1},
}

// The lossy modes — a crash under 1 % link loss, and Section 4.3's
// false-positive side, no crash under 2 % — run only in the traced run's
// untimed probe: about one such scenario in a thousand ends with the
// client's connection reset or stalled for good, which is a defect to
// count (lossyProbes), not work to time.
var foLossyModes = []foMode{
	{name: "primary_of_2_loss1", backups: 1, loss: 0.01},
	{name: "nocrash_loss2", backups: 1, loss: 0.02, noCrash: true},
}

var foThresholds = []int{1, 2, 3, 4, 6, 8}

type foScenario struct {
	threshold int
	mode      foMode
	seed      int64
	crashAt   time.Duration
}

type foResult struct {
	detected, resumed time.Duration // after the crash
	// stall is the longest the client went without a byte from the crash
	// on: the interruption its user sees.
	stall, finished time.Duration // finished: start of stream to last byte
	delivered       int
	suspicions      uint64
	falseReconfigs  int
	clientErr       error
	violations      int
	events          uint64
	snap            hydranet.Snapshot // the scenario's whole life: its Net is its own
}

// runFailover is testbed.MeasureFailover with the payload size, the crash
// instant and the victim as arguments and the Net's counters returned: a
// replicated echo service streams payload to the client and back, a
// replica is killed mid-stream, and the run continues for four virtual
// minutes.
func runFailover(sc foScenario, payload []byte, monitor bool) foResult {
	link := lanLink
	link.Loss = sc.mode.loss
	net := hydranet.New(hydranet.Config{Seed: sc.seed, TCP: tcpConfig(0)})
	client := net.AddHost("client", clientCfg)
	rd := net.AddRedirector("rd", routerCfg)
	var replicas []*hydranet.Host
	for i := 0; i <= sc.mode.backups; i++ {
		replicas = append(replicas, net.AddHost(fmt.Sprintf("s%d", i), serverCfg))
	}
	all := append([]*hydranet.Host{rd.Host, client}, replicas...)
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			net.Link(all[i], all[j], link)
		}
	}
	net.AutoRoute()
	mon := startMonitor(net, monitor, "bench failover")
	opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: sc.threshold}}
	ftsvc, err := net.DeployFT(service, rd, replicas, opts, func(c *hydranet.Conn) { app.Echo(c) })
	if err != nil {
		panic(err)
	}
	net.Settle()

	var res foResult
	var crashTime time.Duration
	rd.Daemon().OnReconfig(func(_ hydranet.ServiceID, failed []hydranet.Addr) {
		for _, f := range failed {
			for _, h := range replicas {
				if h.Addr() == f && !h.Alive() {
					if res.detected == 0 && crashTime > 0 {
						res.detected = net.Now() - crashTime
					}
					return
				}
			}
		}
		res.falseReconfigs++
	})
	conn, err := client.Dial(service)
	if err != nil {
		panic(err)
	}
	start := net.Now()
	lastByte := start
	conn.OnClosed(func(err error) { res.clientErr = err })
	buf := make([]byte, 2048)
	conn.OnReadable(func() {
		for {
			n := conn.Read(buf)
			if n == 0 {
				return
			}
			now := net.Now()
			res.delivered += n
			if crashTime > 0 {
				if res.resumed == 0 {
					res.resumed = now - crashTime
				}
				if gap := now - lastByte; gap > res.stall {
					res.stall = gap
				}
			}
			lastByte = now
			if res.delivered == len(payload) {
				res.finished = now - start
			}
		}
	})
	app.Source(conn, payload, false)

	net.RunFor(sc.crashAt)
	switch {
	case sc.mode.noCrash:
	case sc.mode.victim == 0:
		crashTime = net.Now()
		ftsvc.CrashPrimary()
	default:
		crashTime = net.Now()
		replicas[sc.mode.victim].Crash()
	}
	net.RunFor(4 * time.Minute)

	res.snap, res.events = net.Snapshot(), net.EventsFired()
	for _, h := range res.snap.Hosts {
		if h.Manager != nil {
			res.suspicions += h.Manager.Suspicions
		}
	}
	res.violations = finishAudit(net, mon)
	return res
}

type foInst struct {
	scenarios []foScenario
	payload   []byte
	monitor   bool
	results   []foResult
}

// foPerCell is how many scenarios share a threshold and a mode; their crash
// instants are spread over 300–700 ms into the stream, one per 100 ms
// cell, the position inside the cell drawn from the workload seed.
const (
	foPerCell = 4
	foPayload = 512 << 10 // still streaming at 700 ms: the 486 client takes in about 400 kB/s
)

func prepareFailover(p params, modes []foMode) instance {
	rng := rand.New(rand.NewSource(p.seed))
	f := &foInst{monitor: p.monitor, payload: make([]byte, foPayload)}
	rng.Read(f.payload)
	perCell := p.scaled(foPerCell, 1)
	for _, th := range foThresholds {
		for _, m := range modes {
			for k := 0; k < perCell; k++ {
				cell := 400 * time.Millisecond / time.Duration(perCell)
				f.scenarios = append(f.scenarios, foScenario{
					threshold: th, mode: m,
					seed:    p.seed*1000 + int64(len(f.scenarios)),
					crashAt: 300*time.Millisecond + time.Duration(k)*cell + time.Duration(rng.Int63n(int64(cell))),
				})
			}
		}
	}
	f.results = make([]foResult, len(f.scenarios))
	// Warm-up: the process's heap and the Go runtime, not the Nets — every
	// scenario builds its own Net inside the timed section, as a user's does.
	end := p.span("warmup")
	for i := 0; i < 4 && i < len(f.scenarios); i++ {
		runFailover(f.scenarios[i*len(f.scenarios)/4], f.payload, false)
	}
	end()
	return f
}

func (f *foInst) run() {
	for i, sc := range f.scenarios {
		f.results[i] = runFailover(sc, f.payload, f.monitor)
	}
}

func (f *foInst) collect() outcome {
	o := outcome{latWhat: "longest client stall from the crash on"}
	var detect, stall []float64
	var bytes, seconds float64
	for i, r := range f.results {
		sc := f.scenarios[i]
		id := fmt.Sprintf("threshold=%d %s seed=%d", sc.threshold, sc.mode.name, sc.seed)
		o.attempted++
		o.violations += r.violations
		o.counts.add(r.snap)
		o.counts.Events += r.events
		o.counts.AppBytes += uint64(r.delivered)
		o.virtualSeconds += (time.Second + sc.crashAt + 4*time.Minute).Seconds()
		switch {
		case r.clientErr != nil:
			o.fail("%s: client connection broke: %v", id, r.clientErr)
		case r.falseReconfigs > 0:
			o.fail("%s: %d reconfigurations removed a live host", id, r.falseReconfigs)
		case sc.mode.noCrash:
			// Throughput-limited at 2 % loss: the byte count is not judged.
		case r.delivered != len(f.payload):
			o.fail("%s: delivered %d of %d bytes", id, r.delivered, len(f.payload))
		case r.detected == 0 || r.resumed == 0:
			o.fail("%s: crash detected after %v, stream resumed after %v", id, r.detected, r.resumed)
		}
		if !sc.mode.noCrash {
			detect = append(detect, ms(r.detected))
			stall = append(stall, ms(r.stall))
			bytes += float64(r.delivered)
			seconds += r.finished.Seconds()
		}
	}
	o.lat = summarize(stall)
	o.detectMsP50 = median(detect)
	if seconds > 0 {
		// What the clients of the crashed services saw: bytes echoed back
		// over the time to the last byte, the stall included.
		o.goodputKBps = bytes / seconds / 1000
	}
	return o
}

// ---- churn: short request/response connections through eight FT pods -------

const (
	churnPods   = 8
	requestLen  = 200
	opDeadline  = 30 * time.Second // virtual; a stalled operation is aborted and counted
	minResponse = 256
	maxResponse = 32 << 10
	blobLen     = 1 << 20
)

// responseSize is the q-quantile of a Pareto distribution (shape 0.75)
// bounded to [256 B, 32 KiB]: heavy-tailed, mean ≈ 3 KiB.
func responseSize(q float64) int {
	const alpha = 0.75
	lo, hi := float64(minResponse), float64(maxResponse)
	x := lo / math.Pow(1-q*(1-math.Pow(lo/hi, alpha)), 1/alpha)
	return int(x)
}

type churnOp struct{ size, off int }

type churnPod struct {
	inst   *churnInst
	client *hydranet.Host
	svc    hydranet.ServiceID
	ops    []churnOp
	next   int
	buf    []byte
	opMs   []float64
	closed time.Duration // when the last operation closed
}

type churnInst struct {
	net  *hydranet.Net
	blob []byte
	pods []*churnPod
	mon  *hydranet.Monitor
	out  outcome

	before       hydranet.Snapshot
	eventsBefore uint64
	started      time.Duration
}

// prepareChurn lays out testbed.RunScale's pods (client, redirector,
// primary, backup; redirectors on a backbone ring), deploys a
// request/response service on each and runs warm untimed operations per
// pod. Every pod gets the same stratified sample of the response-size
// distribution — so each seed moves the same volume to within a few
// bytes per connection — in an order, and with a jitter of up to 63
// bytes, drawn from the seed.
func prepareChurn(p params, opsPerPod, warm int, loss float64) instance {
	rng := rand.New(rand.NewSource(p.seed))
	c := &churnInst{blob: make([]byte, blobLen)}
	rng.Read(c.blob)
	c.net = hydranet.New(hydranet.Config{Seed: p.seed, TCP: tcpConfig(0)})
	link := lanLink
	link.Loss = loss
	var rds []*hydranet.Redirector
	var replicas [][]*hydranet.Host
	for i := 0; i < churnPods; i++ {
		pod := &churnPod{inst: c, buf: make([]byte, 4096)}
		pod.client = c.net.AddHost(fmt.Sprintf("c%d", i), clientCfg)
		rd := c.net.AddRedirector(fmt.Sprintf("rd%d", i), ftRouterCfg)
		pair := []*hydranet.Host{
			c.net.AddHost(fmt.Sprintf("s%da", i), ftServerCfg),
			c.net.AddHost(fmt.Sprintf("s%db", i), ftServerCfg),
		}
		c.net.Link(pod.client, rd.Host, link)
		for _, r := range pair {
			c.net.Link(r, rd.Host, link)
		}
		pod.svc = hydranet.ServiceID{Addr: hydranet.MustAddr(fmt.Sprintf("192.20.225.%d", 20+i)), Port: service.Port}
		c.pods, rds, replicas = append(c.pods, pod), append(rds, rd), append(replicas, pair)
	}
	for i := range rds {
		c.net.Link(rds[i].Host, rds[(i+1)%len(rds)].Host, backboneLink)
	}
	c.net.AutoRoute()
	c.mon = startMonitor(c.net, p.monitor, "bench churn")
	for i, pod := range c.pods {
		if _, err := c.net.DeployFT(pod.svc, rds[i], replicas[i], hydranet.FTOptions{}, c.serve); err != nil {
			panic(err)
		}
	}
	c.net.Settle()

	n := p.scaled(opsPerPod, 20)
	warm = p.scaled(warm, 0)
	for _, pod := range c.pods {
		pod.ops = make([]churnOp, warm+n)
		for i := range pod.ops {
			size := responseSize((float64(i%n) + 0.5) / float64(n))
			pod.ops[i] = churnOp{size: size + rng.Intn(64), off: rng.Intn(blobLen - maxResponse - 64)}
		}
		timed := pod.ops[warm:]
		rng.Shuffle(len(timed), func(a, b int) { timed[a], timed[b] = timed[b], timed[a] })
	}
	if warm > 0 {
		end := p.span("warmup")
		c.drive(warm)
		end()
		if c.out.failed > 0 {
			panic(fmt.Sprintf("bench: churn warm-up: %v", c.out.failures))
		}
		c.out = outcome{}
		for _, pod := range c.pods {
			pod.opMs = pod.opMs[:0]
		}
	}
	c.before, c.eventsBefore = c.net.Snapshot(), c.net.EventsFired()
	return c
}

// serve is the service every replica runs: read a fixed-length request
// naming a slice of the shared blob, send that slice, close.
func (c *churnInst) serve(conn *hydranet.Conn) {
	req := make([]byte, 0, requestLen)
	answered := false
	conn.OnReadable(func() {
		if answered {
			return // the client's FIN
		}
		for len(req) < requestLen {
			n := conn.Read(req[len(req):requestLen])
			if n == 0 {
				return
			}
			req = req[:len(req)+n]
		}
		answered = true
		size, off := int(binary.BigEndian.Uint32(req)), int(binary.BigEndian.Uint32(req[4:]))
		if off+size > len(c.blob) {
			conn.Abort()
			return
		}
		app.Source(conn, c.blob[off:off+size], true)
	})
}

// drive runs every pod's next n operations, each pod one at a time.
func (c *churnInst) drive(n int) {
	running := 0
	for _, pod := range c.pods {
		running++
		pod.start(pod.next+n, func() { running-- })
	}
	for ceiling := c.net.Now() + 48*time.Hour; running > 0 && c.net.Now() < ceiling; {
		c.net.RunFor(time.Second)
	}
	if running > 0 {
		c.out.attempted++
		c.out.fail("%d pods still running after 48 virtual hours", running)
	}
}

// start issues the pod's operations up to index end, sequentially, then
// calls done.
func (pod *churnPod) start(end int, done func()) {
	if pod.next >= end {
		pod.closed = pod.inst.net.Now()
		done()
		return
	}
	c, op := pod.inst, pod.ops[pod.next]
	pod.next++
	c.out.attempted++
	began := c.net.Now()
	conn, err := pod.client.Dial(pod.svc)
	if err != nil {
		c.out.fail("dial: %v", err)
		pod.start(end, done)
		return
	}
	req := make([]byte, requestLen)
	binary.BigEndian.PutUint32(req, uint32(op.size))
	binary.BigEndian.PutUint32(req[4:], uint32(op.off))
	copy(req[8:], c.blob[op.off:])
	got, wrong, open := 0, false, true
	deadline := pod.client.Scheduler().After(opDeadline, func() {
		if open {
			c.out.stalled++
			conn.Abort()
		}
	})
	conn.OnReadable(func() {
		for {
			n := conn.Read(pod.buf)
			if n == 0 {
				break
			}
			if got+n > op.size || !bytes.Equal(pod.buf[:n], c.blob[op.off+got:op.off+got+n]) {
				wrong = true
			}
			got += n
		}
		if conn.PeerClosed() {
			conn.Close()
		}
	})
	conn.OnClosed(func(err error) {
		open = false
		deadline.Cancel()
		pod.opMs = append(pod.opMs, ms(c.net.Now()-began))
		switch {
		case err != nil:
			c.out.fail("operation %d: %v after %d of %d bytes", pod.next-1, err, got, op.size)
		case wrong || got != op.size:
			c.out.fail("operation %d: %d of %d bytes, content wrong=%v", pod.next-1, got, op.size, wrong)
		default:
			c.out.counts.AppBytes += uint64(got)
		}
		pod.start(end, done)
	})
	app.Source(conn, req, false)
}

func (c *churnInst) run() {
	c.started = c.net.Now()
	c.drive(len(c.pods[0].ops) - c.pods[0].next)
}

func (c *churnInst) collect() outcome {
	o := c.out
	o.latWhat = "dial to closed, per connection"
	moved := o.counts.AppBytes
	o.counts = counts{AppBytes: moved}
	o.counts.add(c.net.Snapshot().Diff(c.before))
	o.counts.Events = c.net.EventsFired() - c.eventsBefore
	var all []float64
	var last time.Duration
	for _, pod := range c.pods {
		all = append(all, pod.opMs...)
		if pod.closed > last {
			last = pod.closed
		}
	}
	o.lat = summarize(all)
	o.virtualSeconds = (last - c.started).Seconds()
	if o.virtualSeconds > 0 {
		o.goodputKBps = float64(moved) / o.virtualSeconds / 1000
	}
	o.violations = finishAudit(c.net, c.mon)
	return o
}

// ---- reference checks, Figure-4 ordering, observer cost ---------------------

// referenceChecks proves that the scenarios above are still the testbed's:
// without warm-up they must reproduce
// testbed.RunMeasured and testbed.MeasureFailover to the last bit.
func referenceChecks() []string {
	var bad []string
	for _, c := range []struct {
		ft     bool
		cs     testbed.Case
		bufLen int
	}{{true, testbed.CasePrimaryBackup, 16}, {false, testbed.CaseClean, 1024}} {
		const total = 128 << 10
		want, _ := testbed.RunMeasured(testbed.Config{Case: c.cs, BufLen: c.bufLen, TotalBytes: total, Seed: 1})
		t := prepareTTCP(params{seed: 1, span: noSpan}, c.ft, c.bufLen, total, 0).(*ttcpInst)
		t.run()
		o := t.collect()
		if o.failed > 0 || t.res.Bytes != want.Bytes || t.res.Elapsed() != want.Elapsed() {
			bad = append(bad, fmt.Sprintf("%s: bench moved %d bytes in %v, testbed %d in %v (%v)",
				c.cs, t.res.Bytes, t.res.Elapsed(), want.Bytes, want.Elapsed(), o.failures))
		}
	}
	payload := make([]byte, 4<<20)
	for _, sc := range []foScenario{
		{threshold: 2, mode: foModes[0], seed: 1, crashAt: 500 * time.Millisecond},
		{threshold: 4, mode: foModes[1], seed: 1, crashAt: 500 * time.Millisecond},
		{threshold: 3, mode: foLossyModes[0], seed: 2, crashAt: 500 * time.Millisecond},
	} {
		want := testbed.MeasureFailover(testbed.FailoverConfig{
			Threshold: sc.threshold, Backups: sc.mode.backups, Seed: sc.seed, Loss: sc.mode.loss, NoCrash: sc.mode.noCrash})
		got := runFailover(sc, payload, false)
		if got.detected != want.Detected || got.resumed != want.Resumed || got.delivered != want.Delivered ||
			got.suspicions != want.Suspicions || got.falseReconfigs != want.FalseReconfigs {
			bad = append(bad, fmt.Sprintf("failover threshold=%d %s: bench detected %v resumed %v delivered %d, testbed %v %v %d",
				sc.threshold, sc.mode.name, got.detected, got.resumed, got.delivered, want.Detected, want.Resumed, want.Delivered))
		}
	}
	return bad
}

// figure4Ordering runs the paper's 28-point sweep at 128 KiB and checks the
// one thing the paper's plot lets us check: the order of the four curves
// at every write size.
func figure4Ordering() (points int, bad []string) {
	for _, size := range testbed.Figure4Sizes {
		var kbps [4]float64
		for i, c := range testbed.Figure4Cases {
			r, _ := testbed.RunMeasured(testbed.Config{Case: c, BufLen: size, TotalBytes: 128 << 10, Seed: 1})
			if r.Err != nil {
				bad = append(bad, fmt.Sprintf("%s at %d B: %v", c, size, r.Err))
			}
			kbps[i] = r.ThroughputKBps()
			points++
		}
		if !(kbps[0] >= kbps[1] && kbps[1] > kbps[2] && kbps[2] > kbps[3]) {
			bad = append(bad, fmt.Sprintf("at %d B: clean %.1f, no redirection %.1f, primary only %.1f, primary and backup %.1f kB/s",
				size, kbps[0], kbps[1], kbps[2], kbps[3]))
		}
	}
	return points, bad
}

// observerCost measures each attachable observer's slowdown of the
// simulator: wall time of the same testbed run with the observer attached
// over the faster of two bare runs.
func observerCost(dir string) map[string]float64 {
	transfer := func(cfg testbed.Config) float64 {
		cfg.Case, cfg.BufLen, cfg.TotalBytes, cfg.Seed = testbed.CasePrimaryBackup, 16, 1<<20, 1
		start := time.Now()
		if r, _ := testbed.RunMeasured(cfg); r.Err != nil {
			panic(fmt.Sprintf("bench: observer-cost transfer: %v", r.Err))
		}
		return time.Since(start).Seconds()
	}
	sweep := func(cfg testbed.FailoverConfig) float64 {
		start := time.Now()
		for i := 0; i < 12; i++ {
			cfg.Threshold, cfg.Seed = foThresholds[i%len(foThresholds)], int64(1+i)
			testbed.MeasureFailover(cfg)
		}
		return time.Since(start).Seconds()
	}
	file := func(name string) string { return filepath.Join(dir, name) }
	out := map[string]float64{}
	bare := transfer(testbed.Config{})
	out["capture.pcap_overhead"] = transfer(testbed.Config{PcapPath: file("t.pcap")})
	out["series.sampler_overhead"] = transfer(testbed.Config{SeriesPath: file("t.jsonl")})
	out["prof.profile_overhead"] = transfer(testbed.Config{ProfilePath: file("t.prof.json")})
	out["invariant.monitor_overhead"] = transfer(testbed.Config{Invariants: true})
	bare = math.Min(bare, transfer(testbed.Config{}))
	for k := range out {
		out[k] /= bare
	}
	bareSweep := sweep(testbed.FailoverConfig{})
	flight := sweep(testbed.FailoverConfig{FlightPrefix: file("flight")})
	spans := sweep(testbed.FailoverConfig{SpansPath: file("spans.json")})
	bareSweep = math.Min(bareSweep, sweep(testbed.FailoverConfig{}))
	out["capture.flight_overhead"] = flight / bareSweep
	out["tcp.spans_overhead"] = spans / bareSweep
	return out
}

// scratchDir makes a directory for observer outputs under the working
// directory's build area, so the benchmark writes nothing outside it.
func scratchDir() (dir string, cleanup func()) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp(buildDir, "observers-")
	if err != nil {
		panic(err)
	}
	return dir, func() { os.RemoveAll(dir) }
}
