package testbed

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/core"
	"hydranet/internal/invariant"
	"hydranet/internal/netsim"
	"hydranet/internal/rmp"
	"hydranet/internal/ttcp"
)

// A Scenario is one run as a value: a network, the service on it, the
// client's workload, the faults to inject and the steps that drive the run.
// Play runs it. Play reads the Scenario's slices and never writes them, so
// one value can be played at several seeds at once.
type Scenario struct {
	Seed    int64
	Observe hydranet.Instruments // the run's observers; Observe.Scenario names the run

	// The network. Testbed zero is the paper's Figure-3 star (star) with TCP
	// and Link. Any other case is the Section-5 LAN in that configuration:
	// the machine model scaled by CPUScale (zero means 1), the testbed's own
	// TCP settings and Link's loss on every link. Replicas counts the
	// replicated cases' servers.
	Testbed  Case
	Replicas int
	CPUScale float64
	TCP      hydranet.TCPConfig
	Link     hydranet.LinkConfig

	// The service on every replica: Accept (an echo when nil, a ttcp sink
	// under a TTCP workload), the detector's Threshold (zero: its default),
	// the Heartbeat period (zero: none), the loss of every replica's
	// acknowledgment channel, and the strikes after which the redirector
	// evicts a congested replica (zero: never).
	Accept    func(*hydranet.Conn)
	Threshold int
	Heartbeat time.Duration
	ChainLoss float64
	Strikes   int

	// The workload: a ttcp transfer when TTCP.BufLen is set. Otherwise the
	// client writes Send (then closes, with Close) and reads what the
	// service answers, expecting Echo, or the echo of what it sent when Echo
	// is nil.
	TTCP  ttcp.Params
	Send  []byte
	Close bool
	Echo  []byte

	// Setup runs once the observers are attached, before the service
	// deploys: it adds clients, routers or a mirrored redirector, and
	// subscribes its own observers. The monitor and the capture's frame tap
	// see hosts and links added there (the monitor names chain members by
	// the hosts present at attach); a redirector's encap tap is fixed when
	// the observers attach and does not. After the dial the steps run in
	// order, and each fault is injected at its instant or byte count. Log,
	// when set, narrates the run's milestones.
	Setup  func(*Run)
	Steps  []Step
	Faults []Fault // at most 64
	Log    func(format string, args ...any)
}

// A Step runs the network for After and then calls Do. With Until set it
// polls Until every After instead, for at most Limit after the dial, and
// calls Do only once Until holds; a step whose Until never held is named in
// Run.Unmet.
type Step struct {
	After time.Duration
	Until func(*Run) bool
	Limit time.Duration
	Do    func(*Run)
}

// A Fault is what a scenario breaks, and when: At after the dial, or, when
// Echoed is set, inside the read that brings the client to that many bytes.
// A fault due at the end of a step is injected before the step's Do.
type Fault struct {
	At      time.Duration
	Echoed  int
	Kind    FaultKind
	Replica int // the victim of Crash, Silence and Cut, by index
}

// FaultKind says what a Fault breaks.
type FaultKind int

const (
	CrashPrimary FaultKind = iota // the service's current primary fail-stops
	Crash                         // the replica fail-stops
	Silence                       // the replica's acknowledgment channel drops everything: alive, but congested
	Cut                           // the replica's link on the star loses every frame: alive, but unreachable
)

// StarService is the service a star scenario deploys.
var StarService = hydranet.ServiceID{Addr: ServiceAddr, Port: 80}

// A Run is a scenario being played and, once Play returns, what it showed.
// Its fields beyond the network are readings: Detected and Resumed are
// timed from CrashedAt, the first crash fault's instant, to the first
// reconfiguration that removed a crashed replica and to the first byte the
// client read after the crash; FalseReconfigs counts the reconfigurations
// that removed only live replicas.
type Run struct {
	Net        *hydranet.Net
	Client     *hydranet.Host
	Redirector *hydranet.Redirector // nil unless the service is replicated
	Replicas   []*hydranet.Host     // the servers
	Links      []*netsim.Link       // on the star, the client's link, then each replica's
	Service    *hydranet.FTService  // nil unless the service is replicated
	Session    *hydranet.Session    // nil if the observers could not attach
	Summary    hydranet.Summary     // what Session.Finish reported
	ObserveErr error                // what attaching or finishing the observers reported

	*Stream                                // the client's echo stream; nil under a ttcp workload
	Transfer                   ttcp.Result // the ttcp transfer's result, once Done
	Done                       bool
	CrashedAt                  time.Duration
	Detected                   time.Duration
	Resumed                    time.Duration
	Suspicions                 uint64 // detector trips, summed over the replicas
	FalseReconfigs, Violations int
	Unmet                      []string // steps whose Until never held, faults that never fired
	Wall                       time.Duration

	dialAt time.Duration // when the workload started
	faults []Fault
	fired  uint64 // bit i: faults[i] was injected
	log    func(format string, args ...any)
}

// A Stream is one client connection and what the client read: Delivered
// bytes, Garbled if they are not a prefix of the bytes it expects.
type Stream struct {
	Conn              *hydranet.Conn
	Delivered         int
	Garbled, Closed   bool
	Err               error         // what the connection closed with
	Dialled, ClosedAt time.Duration // ClosedAt counts from the dial
	want              []byte
}

// Echoed reports whether the client read exactly the bytes it expects.
func (s *Stream) Echoed() bool { return s.Delivered == len(s.want) && !s.Garbled }

// Write sends b on an echo service's connection and expects it back after
// everything sent before.
func (s *Stream) Write(b []byte) {
	s.want = append(s.want[:len(s.want):len(s.want)], b...)
	s.Conn.Write(b)
}

// Dial connects from to to, writes send (then closes, with close) and reads
// everything the service answers, expecting the echo of send. Each read is
// published for the monitor's client-delivery rule, and the client closes
// when the server does, as a request/response client would.
func (r *Run) Dial(from *hydranet.Host, to hydranet.Endpoint, send []byte, close bool) *Stream {
	conn, err := from.DialEndpoint(to)
	if err != nil {
		panic(fmt.Sprintf("testbed: dial: %v", err))
	}
	s := &Stream{Conn: conn, want: send, Dialled: r.Net.Now()}
	buf, bus, name := make([]byte, 8192), r.Net.Bus(), from.Name()
	conn.OnReadable(func() {
		for n := conn.Read(buf); n > 0; n = conn.Read(buf) {
			k := min(n, max(len(s.want)-s.Delivered, 0))
			s.Garbled = s.Garbled || k < n || !bytes.Equal(buf[:k], s.want[s.Delivered:s.Delivered+k])
			s.Delivered += n
			bus.Publish(hydranet.Event{Kind: hydranet.KindClientDeliver, Node: name, Size: n})
			if r.CrashedAt > 0 && r.Resumed == 0 {
				r.Resumed = r.Net.Now() - r.CrashedAt
			}
		}
		if conn.PeerClosed() {
			conn.Close()
		}
		for i, f := range r.faults {
			if s == r.Stream && r.fired&(1<<i) == 0 && f.Echoed > 0 && s.Delivered >= f.Echoed {
				r.inject(i)
			}
		}
	})
	conn.OnClosed(func(err error) {
		s.Closed, s.Err, s.ClosedAt = true, err, r.Net.Now()-s.Dialled
		if err != nil && r.log != nil {
			r.log("CLIENT CONNECTION FAILED: %v", err)
		}
	})
	app.Source(conn, send, close)
	return s
}

// star builds the paper's Figure-3 setup on net: a client and replicas
// host servers s0, s1, …, each on its own 10 Mbit/s, 1 ms link to the
// redirector rd, with link's jitter and loss. link's Delay, when set, is the
// client's link's instead.
func star(net *hydranet.Net, replicas int, link hydranet.LinkConfig) *Run {
	r := &Run{Net: net, Client: net.AddHost("client", hydranet.HostConfig{}),
		Redirector: net.AddRedirector("rd", hydranet.HostConfig{})}
	link.Rate, link.Delay = 10_000_000, cmp.Or(link.Delay, time.Millisecond)
	r.Links = append(r.Links, net.Link(r.Client, r.Redirector.Host, link))
	link.Delay = time.Millisecond
	for i := range replicas {
		h := net.AddHost(fmt.Sprintf("s%d", i), hydranet.HostConfig{})
		r.Replicas = append(r.Replicas, h)
		r.Links = append(r.Links, net.Link(h, r.Redirector.Host, link))
	}
	net.AutoRoute()
	return r
}

// lanTCP is the TCP of the Section-5 testbed. TIME-WAIT is short to keep
// the measurement window tight: a transfer ends when the client's FIN
// handshake completes, so TIME-WAIT must not extend the measured interval.
// No echo stream closes.
var lanTCP = hydranet.TCPConfig{MSS: 1460, SendBufSize: 16384, RecvBufSize: 16384,
	DelayedAckTimeout: 200 * time.Millisecond, TimeWaitDuration: time.Millisecond}

// lan builds the Section-5 testbed on net in the scenario's configuration:
// one Ethernet segment of the client, the router or redirector and the
// servers.
func (sc *Scenario) lan(net *hydranet.Net) *Run {
	m := machineModel(sc.CPUScale, sc.Testbed != CaseClean && sc.Testbed != CaseFailover)
	link := testbedLink
	link.Loss = sc.Link.Loss
	r := &Run{Net: net, Client: net.AddHost("client", m.client)}
	var router *hydranet.Host
	switch sc.Testbed {
	case CaseClean:
		router = net.AddRouter("router", m.router)
	case CaseNoRedirection: // the redirector software runs, its table stays empty
		router = net.AddRedirector("rd", m.router).Host
	default:
		r.Redirector = net.AddRedirector("rd", m.router)
	}
	if router != nil {
		r.Replicas = []*hydranet.Host{net.AddHost("server", m.server)}
		mesh(net, link, r.Client, router, r.Replicas[0])
		return r
	}
	for i := range sc.Replicas {
		r.Replicas = append(r.Replicas, net.AddHost(fmt.Sprintf("s%d", i), m.server))
	}
	mesh(net, link, append([]*hydranet.Host{r.Redirector.Host, r.Client}, r.Replicas...)...)
	return r
}

// Play builds the scenario's network, attaches its observers, runs Setup,
// deploys the service, starts the workload and runs the steps, injecting
// the faults as they fall due.
func (sc Scenario) Play() *Run {
	start := time.Now()
	cfg, target := hydranet.Config{Seed: sc.Seed, TCP: sc.TCP}, StarService
	if sc.Testbed != 0 {
		cfg.TCP, target = lanTCP, hydranet.Endpoint{Addr: ServiceAddr, Port: ServicePort}
	}
	var r *Run
	if net := hydranet.New(cfg); sc.Testbed == 0 {
		r = star(net, sc.Replicas, sc.Link)
	} else {
		r = sc.lan(net)
	}
	r.faults, r.log = sc.Faults, sc.Log
	if r.Session, r.ObserveErr = r.Net.Instrument(sc.Observe); r.ObserveErr != nil {
		return r
	}
	if sc.Setup != nil {
		sc.Setup(r)
	}

	accept := sc.Accept
	if sc.TTCP.BufLen > 0 {
		accept = func(c *hydranet.Conn) { ttcp.Sink(c) }
	} else if accept == nil {
		accept = app.Echo
	}
	if r.Redirector == nil {
		target.Addr = r.Replicas[0].Addr()
		lst, err := r.Replicas[0].Listen(0, ServicePort)
		if err != nil {
			panic(err)
		}
		lst.SetAcceptFunc(accept)
	} else {
		r.deploy(&sc, target, accept)
	}

	r.dialAt = r.Net.Now()
	if sc.TTCP.BufLen > 0 {
		conn, err := r.Client.DialEndpoint(target)
		if err != nil {
			panic(fmt.Sprintf("testbed: dial: %v", err))
		}
		ttcp.Transmit(r.Client.Scheduler(), conn, sc.TTCP, func(res ttcp.Result) { r.Transfer, r.Done = res, true })
	} else {
		r.Stream = r.Dial(r.Client, target, sc.Send, sc.Close)
		if sc.Echo != nil {
			r.want = sc.Echo
		}
		if r.log != nil {
			r.log("client streaming %d bytes through the fault-tolerant connection", len(sc.Send))
		}
	}

	for i, s := range sc.Steps {
		for s.Until != nil && !s.Until(r) && r.Net.Now() < r.dialAt+s.Limit {
			r.advance(s.After)
		}
		switch {
		case s.Until == nil:
			r.advance(s.After)
		case !s.Until(r):
			r.Unmet = append(r.Unmet, fmt.Sprintf("step %d: not met %v after the dial", i, s.Limit))
			continue
		}
		if s.Do != nil {
			s.Do(r)
		}
	}
	for i, f := range r.faults {
		if r.fired&(1<<i) == 0 {
			r.Unmet = append(r.Unmet, fmt.Sprintf("fault %d (%+v) never fired", i, f))
		}
	}
	if r.Service != nil {
		for _, h := range r.Replicas {
			r.Suspicions += h.FTManager().Stats().Suspicions
		}
	}
	if r.Summary, r.ObserveErr = r.Session.Finish(); r.Summary.Audit != nil {
		r.Violations = int(r.Summary.Audit.TotalViolations())
	}
	r.Wall = time.Since(start)
	return r
}

// Problems judges a run played under the invariant monitor
// (Observe.Invariants): what attaching or finishing the observers reported,
// an audit that checked nothing, a rule in violated that reported no
// violation and any other that reported one, client reads the monitor never
// judged, and each step unmet or fault never fired. A sound run has none.
func (r *Run) Problems(violated ...string) []string {
	var out []string
	if r.ObserveErr != nil {
		out = append(out, fmt.Sprintf("observers: %v", r.ObserveErr))
	}
	audit := r.Summary.Audit
	if audit == nil {
		return append(out, "no audit: the run was not monitored")
	}
	if audit.Checks == 0 {
		out = append(out, "the monitor checked nothing")
	}
	for _, rr := range audit.Rules {
		switch want := slices.Contains(violated, rr.Rule); {
		case want && rr.Violations == 0:
			out = append(out, fmt.Sprintf("rule %s reported no violation", rr.Rule))
		case !want && rr.Violations != 0:
			out = append(out, fmt.Sprintf("rule %s: %d violations, the first: %v", rr.Rule, rr.Violations, audit.Violations[0]))
		case rr.Rule == invariant.RuleDelivery && r.Stream != nil && r.Delivered > 0 && rr.Checks == 0:
			out = append(out, "the monitor never checked the client's reads")
		}
	}
	return append(out, r.Unmet...)
}

// deploy replicates the service on every server, settles the chain and
// starts timing reconfigurations.
func (r *Run) deploy(sc *Scenario, svc hydranet.ServiceID, accept func(*hydranet.Conn)) {
	opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: sc.Threshold}, Heartbeat: sc.Heartbeat}
	var err error
	if r.Service, err = r.Net.DeployFT(svc, r.Redirector, r.Replicas, opts, accept); err != nil {
		panic(err)
	}
	if r.log != nil {
		r.log("deployed %s across %d replicas", svc, len(r.Replicas))
	}
	if sc.ChainLoss > 0 {
		for _, h := range r.Replicas {
			h.FTManager().SetChainLoss(sc.ChainLoss)
		}
	}
	if sc.Strikes > 0 {
		r.Redirector.Daemon().SetCongestionPolicy(rmp.CongestionPolicy{Strikes: sc.Strikes, Window: 2 * time.Minute})
	}
	r.Net.Settle()
	if r.log != nil {
		r.log("chain established: %v (primary first)", r.Service.Chain())
	}
	r.Redirector.Daemon().OnReconfig(func(_ core.ServiceID, failed []hydranet.Addr) {
		genuine := false
		for _, f := range failed {
			for _, h := range r.Replicas {
				genuine = genuine || h.Addr() == f && !h.Alive()
			}
		}
		if !genuine {
			r.FalseReconfigs++
		} else if r.Detected == 0 && r.CrashedAt > 0 {
			r.Detected = r.Net.Now() - r.CrashedAt
		}
	})
}

// advance runs the network for d, injecting every fault due on the way.
// The network runs to each fault's instant; once a fault is injected, more
// faults due at that instant, and a Do at the end of the step, follow before
// anything else runs.
func (r *Run) advance(d time.Duration) {
	end, injected := r.Net.Now()+d, time.Duration(-1)
	for {
		next := -1
		for i, f := range r.faults {
			if r.fired&(1<<i) == 0 && f.Echoed == 0 && r.dialAt+f.At <= end && (next < 0 || f.At < r.faults[next].At) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		if due := r.dialAt + r.faults[next].At; due != injected {
			r.Net.RunUntil(due)
		}
		r.inject(next)
		injected = r.Net.Now()
	}
	if end != injected {
		r.Net.RunUntil(end)
	}
}

// inject breaks what faults[i] names. Every fault due at the client's byte
// count is injected in the read that reaches it (Dial); the others at their
// instants (advance).
func (r *Run) inject(i int) {
	f := r.faults[i]
	r.fired |= 1 << i
	switch f.Kind {
	case Silence:
		r.Replicas[f.Replica].FTManager().SetChainLoss(1)
		return
	case Cut:
		r.Links[1+f.Replica].SetLoss(1)
		return
	}
	p, victim, role := r.Service.Primary(), r.Replicas[f.Replica], "backup"
	if f.Kind == CrashPrimary {
		if p == nil {
			return // the chain is empty: there is no primary to crash
		}
		victim = p.Host
	}
	if p != nil && p.Host == victim {
		role = "primary"
	}
	victim.Crash()
	r.CrashedAt = cmp.Or(r.CrashedAt, r.Net.Now())
	if r.log != nil {
		r.log("CRASH: %s %s fail-stopped", role, victim.Name())
	}
}
