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

// A scenario is one testbed run as a value: a network, the service on it,
// the client's workload, and one fault at one instant. play runs it.
type scenario struct {
	name    string // the run's name in its artifacts
	seed    int64
	observe hydranet.Instruments

	// The network. fig4 is a Figure-4 configuration; zero is the replicated
	// testbed of A1 and A5, whose machines carry no cost for the HydraNet-FT
	// software. replicas counts the replicated cases' hosts.
	fig4     Case
	replicas int
	cpuScale float64 // zero means 1
	loss     float64 // every link's

	// The service: the detector's threshold (zero: its default), the loss
	// of every replica's acknowledgment channel, and the strikes after which
	// the redirector evicts a congested replica (zero: never).
	threshold, strikes int
	chainLoss          float64

	// The workload: a ttcp transfer of total bytes in bufLen-byte writes,
	// or, with bufLen zero, a 4 MiB stream through an echo service.
	bufLen, total int

	// The fault at faultAt, then the run's limit: a transfer that ends
	// earlier ends the run.
	fault          fault
	faultAt, limit time.Duration
}

// A fault is what a scenario breaks at its fault instant.
type fault int

const (
	noFault       fault = iota
	crashPrimary        // the primary fail-stops
	silenceBackup       // the first backup's acknowledgment channel drops everything: alive, but congested
)

// An outcome is what one run of a scenario reports. FailoverResult's fields
// hold the echo stream's reading and every run's observer verdict. The Net
// is kept for readers that want its totals: only they pay for a Snapshot.
type outcome struct {
	FailoverResult
	net      *hydranet.Net
	transfer ttcp.Result // the ttcp transfer's result, once done
	done     bool
	wall     time.Duration
}

// play builds the scenario's network, attaches its observers, deploys the
// service, starts the workload, injects the fault and runs to the limit.
func (sc scenario) play() outcome {
	start := time.Now()
	m := machineModel(sc.cpuScale, sc.fig4 != 0 && sc.fig4 != CaseClean)
	link := testbedLink
	link.Loss = sc.loss
	net := hydranet.New(hydranet.Config{Seed: sc.seed, TCP: hydranet.TCPConfig{
		MSS: 1460, SendBufSize: 16384, RecvBufSize: 16384,
		DelayedAckTimeout: 200 * time.Millisecond,
		// Keep the measurement window tight: a transfer ends when the
		// client's FIN handshake completes, so TIME-WAIT must not extend
		// the measured interval. No echo stream closes.
		TimeWaitDuration: time.Millisecond,
	}})
	o := outcome{net: net}
	client := net.AddHost("client", m.client)
	var (
		router  *hydranet.Host
		rd      *hydranet.Redirector // nil unless the service is replicated
		servers []*hydranet.Host
	)
	switch sc.fig4 {
	case CaseClean:
		router = net.AddRouter("router", m.router)
	case CaseNoRedirection: // the redirector software runs, its table stays empty
		router = net.AddRedirector("rd", m.router).Host
	default:
		rd = net.AddRedirector("rd", m.router)
	}
	if rd == nil {
		servers = []*hydranet.Host{net.AddHost("server", m.server)}
		mesh(net, link, client, router, servers[0])
	} else {
		for i := range sc.replicas {
			servers = append(servers, net.AddHost(fmt.Sprintf("s%d", i), m.server))
		}
		mesh(net, link, append([]*hydranet.Host{rd.Host, client}, servers...)...)
	}

	in := sc.observe
	in.Scenario = sc.name
	sess, err := net.Instrument(in)
	if err != nil {
		o.ObserveErr = err
		return o
	}

	accept := app.Echo
	if sc.bufLen > 0 {
		accept = func(c *hydranet.Conn) { ttcp.Sink(c) }
	}
	target := hydranet.Endpoint{Addr: ServiceAddr, Port: ServicePort}
	var svc *hydranet.FTService
	var crashTime time.Duration
	if rd == nil {
		target.Addr = servers[0].Addr()
		lst, err := servers[0].Listen(0, ServicePort)
		if err != nil {
			panic(err)
		}
		lst.SetAcceptFunc(accept)
	} else {
		opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: sc.threshold}}
		if svc, err = net.DeployFT(target, rd, servers, opts, accept); err != nil {
			panic(err)
		}
		if sc.chainLoss > 0 {
			for _, h := range servers {
				h.FTManager().SetChainLoss(sc.chainLoss)
			}
		}
		if sc.strikes > 0 {
			rd.Daemon().SetCongestionPolicy(rmp.CongestionPolicy{Strikes: sc.strikes, Window: 2 * time.Minute})
		}
		net.Settle()
		// A reconfiguration that removes a crashed replica detects the crash;
		// one that removes a live replica is a false positive.
		rd.Daemon().OnReconfig(func(_ core.ServiceID, failed []hydranet.Addr) {
			genuine := false
			for _, f := range failed {
				for _, h := range servers {
					genuine = genuine || h.Addr() == f && !h.Alive()
				}
			}
			if !genuine {
				o.FalseReconfigs++
			} else if o.Detected == 0 && crashTime > 0 {
				o.Detected = net.Now() - crashTime
			}
		})
	}

	conn, err := client.DialEndpoint(target)
	if err != nil {
		panic(fmt.Sprintf("testbed: dial: %v", err))
	}
	if sc.bufLen > 0 {
		ttcp.Transmit(client.Scheduler(), conn, ttcp.Params{BufLen: sc.bufLen, TotalBytes: sc.total},
			func(r ttcp.Result) { o.transfer, o.done = r, true })
	} else {
		conn.OnClosed(func(err error) { o.ClientError = err })
		buf := make([]byte, 2048)
		conn.OnReadable(func() {
			for n := conn.Read(buf); n > 0; n = conn.Read(buf) {
				o.Delivered += n
				if crashTime > 0 && o.Resumed == 0 {
					o.Resumed = net.Now() - crashTime
				}
			}
		})
		app.Source(conn, make([]byte, 4<<20), false)
	}

	net.RunFor(sc.faultAt)
	switch sc.fault {
	case crashPrimary:
		crashTime = net.Now()
		svc.CrashPrimary()
	case silenceBackup:
		servers[1].FTManager().SetChainLoss(1)
	}
	deadline := net.Now() + sc.limit
	for !o.done && net.Now() < deadline {
		net.RunFor(time.Second)
	}

	if rd != nil {
		for _, h := range servers {
			o.Suspicions += h.FTManager().Stats().Suspicions
		}
	}
	sum, err := sess.Finish()
	o.ObserveErr = err
	if sum.Audit != nil {
		o.Violations = int(sum.Audit.TotalViolations())
	}
	o.wall = time.Since(start)
	return o
}
