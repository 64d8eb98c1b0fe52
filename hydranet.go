// Package hydranet is the public API of HydraNet-FT, a reproduction of
// "HydraNet-FT: Network Support for Dependable Services" (Shenoy, Satapati,
// Bettati — ICDCS 2000) on a deterministic discrete-event network
// simulator.
//
// A Net holds a virtual internetwork of hosts, redirectors and links. TCP
// services can be deployed plainly, replicated for scaling (nearest-replica
// redirection), or replicated for fault tolerance: the redirector
// multicasts client packets to a primary and hot-standby backups whose
// modified TCP stacks synchronize over an acknowledgment channel, so the
// client sees a single ordinary TCP endpoint that survives server crashes.
//
// Basic use:
//
//	net := hydranet.New(hydranet.Config{Seed: 1})
//	client := net.AddHost("client", hydranet.HostConfig{})
//	rd := net.AddRedirector("rd", hydranet.HostConfig{})
//	s0 := net.AddHost("s0", hydranet.HostConfig{})
//	s1 := net.AddHost("s1", hydranet.HostConfig{})
//	for _, h := range []*hydranet.Host{client, s0, s1} {
//		net.Link(h, rd.Host, hydranet.LinkConfig{Rate: 10e6})
//	}
//	net.AutoRoute()
//	svc := hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.20"), Port: 80}
//	net.DeployFT(svc, rd, []*hydranet.Host{s0, s1}, hydranet.FTOptions{}, echoAccept)
//	conn, _ := client.Dial(svc)
//	...
//	net.RunFor(10 * time.Second)
package hydranet

import (
	"fmt"
	"slices"
	"time"

	"hydranet/internal/core"
	"hydranet/internal/hostserver"
	"hydranet/internal/icmp"
	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/obs"
	"hydranet/internal/redirector"
	"hydranet/internal/rmp"
	"hydranet/internal/sim"
	"hydranet/internal/tcp"
	"hydranet/internal/udp"
)

// Re-exported types: the facade deliberately exposes the protocol-level
// types users interact with, so application code never imports internal
// packages directly.
type (
	// Addr is an IPv4 address.
	Addr = ipv4.Addr
	// ServiceID names a replicated service access point (address + port).
	ServiceID = core.ServiceID
	// Conn is a TCP connection endpoint (event-driven: see OnReadable,
	// OnWritable, OnClosed).
	Conn = tcp.Conn
	// Endpoint is a TCP address:port pair.
	Endpoint = tcp.Endpoint
	// Listener accepts inbound TCP connections.
	Listener = tcp.Listener
	// LinkConfig describes link rate, delay, MTU, queue and loss.
	LinkConfig = netsim.LinkConfig
	// TCPConfig tunes a host's TCP stack.
	TCPConfig = tcp.Config
	// DetectorParams tune the per-port failure estimator.
	DetectorParams = core.DetectorParams
	// Mode is a replica role (primary or backup).
	Mode = core.Mode
)

// Replica roles.
const (
	ModePrimary = core.ModePrimary
	ModeBackup  = core.ModeBackup
)

// MustAddr parses a dotted-quad address, panicking on error (for literals).
func MustAddr(s string) Addr { return inet.MustParseAddr(s) }

// Config configures a Net.
type Config struct {
	// Seed drives all randomness (loss decisions). Runs with equal seeds
	// and topologies produce identical packet traces.
	Seed int64
	// TCP is the TCP configuration of every host.
	TCP TCPConfig
}

// HostConfig configures one host.
type HostConfig struct {
	// ProcDelay is the per-packet CPU cost of the node, modelling host
	// speed (the paper's 486s vs Pentiums).
	ProcDelay time.Duration
	// ProcPerByte is additional CPU cost per packet byte (copies and
	// checksums on slow machines).
	ProcPerByte time.Duration
}

// Net is a simulated internetwork.
type Net struct {
	cfg   Config
	sched *sim.Scheduler
	fab   *netsim.Network
	bus   *obs.Bus

	hosts       []*Host
	redirectors []*Redirector
	links       []linkInfo
	nextSubnet  int // Link's /24s so far: 10.1.0.0 … 10.255.0.0, then 10.0.0.0

	// session is what Instrument attached; deployed records that a DeployFT
	// has run, after which Instrument refuses (instrument.go).
	session  *Session
	deployed bool

	hosts0       [8]*Host       // hosts' backing up to eight hosts
	redirectors0 [2]*Redirector // redirectors' backing up to two redirectors
	links0       [16]linkInfo   // links' backing up to sixteen links
}

type linkInfo struct {
	a, b       *Host
	aIf, bIf   int
	aAddr      Addr
	bAddr      Addr
	prefix     ipv4.Prefix
	underlying *netsim.Link
}

// New creates an empty network.
func New(cfg Config) *Net {
	s := sim.NewScheduler(cfg.Seed)
	n := &Net{cfg: cfg, sched: s, fab: netsim.New(s), bus: obs.NewBus(s.Now)}
	n.hosts, n.redirectors, n.links = n.hosts0[:0], n.redirectors0[:0], n.links0[:0]
	n.fab.SetBus(n.bus)
	return n
}

// Bus returns the network-wide observability event bus. Every layer emits
// on it; with no subscribers emission is disabled and costs nothing.
func (n *Net) Bus() *obs.Bus { return n.bus }

// PoisonFrames enables (or disables) frame-pool poisoning: every frame
// buffer returned to the fabric's pool is overwritten with a sentinel
// pattern before reuse, so a component that illegally retains a reference
// past its delivery callback observes corruption instead of silently
// reading recycled data. A testing aid, on in every test binary — it costs
// one memset per released frame and must not change any observable result.
func (n *Net) PoisonFrames(on bool) { n.fab.Pool().SetPoison(on) }

// Now returns the current virtual time.
func (n *Net) Now() time.Duration { return n.sched.Now() }

// RunFor advances virtual time by d.
func (n *Net) RunFor(d time.Duration) { n.sched.RunUntil(n.sched.Now() + d) }

// RunUntil advances virtual time to the absolute instant t.
func (n *Net) RunUntil(t time.Duration) { n.sched.RunUntil(t) }

// Scheduler exposes the event scheduler that drives every host of the
// network.
func (n *Net) Scheduler() *sim.Scheduler { return n.sched }

// At schedules fn at absolute virtual time t (scripted events such as
// failure injection).
func (n *Net) At(t time.Duration, fn func()) { n.sched.At(t, fn) }

// EventsFired returns the total number of executed simulation events.
func (n *Net) EventsFired() uint64 { return n.sched.Fired() }

// Host is a simulated machine: IP, UDP and TCP stacks, HydraNet host-server
// support, the ft-TCP engine, and a management daemon, all held by value, so
// a host is one object, a replica included (DESIGN §5).
type Host struct {
	net  *Net
	name string
	node netsim.Node

	ip   ipv4.Stack
	udp  udp.Stack
	tcp  tcp.Stack
	icmp icmp.Stack
	hs   hostserver.HostServer
	mgr  *core.Manager   // &mgr0 once FTManager has run
	dmn  *rmp.HostDaemon // &dmn0 once Daemon has run
	mgr0 core.Manager
	dmn0 rmp.HostDaemon
	addr Addr // primary address (first link)
	idx  int  // position in Net.hosts
}

// AddHost creates a host.
func (n *Net) AddHost(name string, cfg HostConfig) *Host {
	h := &Host{net: n, name: name, idx: len(n.hosts)}
	n.fab.InitNode(&h.node, netsim.NodeConfig{Name: name, ProcDelay: cfg.ProcDelay, ProcPerByte: cfg.ProcPerByte})
	h.ip.Init(&h.node, n.sched)
	h.udp.Init(&h.ip)
	h.tcp.Init(&h.ip, n.cfg.TCP)
	h.tcp.SetBus(n.bus)
	h.icmp.Init(&h.ip)
	h.hs.Init(&h.ip)
	n.hosts = append(n.hosts, h)
	return h
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Scheduler returns the scheduler driving this host, for harness code that
// paces per-host traffic (ttcp transmitters, scripted sends).
func (h *Host) Scheduler() *sim.Scheduler { return h.node.Scheduler() }

// Addr returns the host's primary address (assigned by its first link).
func (h *Host) Addr() Addr { return h.addr }

// TCP returns the host's TCP stack (advanced use: traces, raw connects).
func (h *Host) TCP() *tcp.Stack { return &h.tcp }

// UDP returns the host's UDP stack.
func (h *Host) UDP() *udp.Stack { return &h.udp }

// IP returns the host's IPv4 stack.
func (h *Host) IP() *ipv4.Stack { return &h.ip }

// HostServer returns the HydraNet host-server facet.
func (h *Host) HostServer() *hostserver.HostServer { return &h.hs }

// ICMP returns the host's ICMP layer (ping, error observation).
func (h *Host) ICMP() *icmp.Stack { return &h.icmp }

// Ping sends one ICMP echo to dst; done receives the outcome. Run the
// network to let it complete.
func (h *Host) Ping(dst Addr, timeout time.Duration, done func(icmp.EchoResult)) {
	h.icmp.Ping(dst, 0, timeout, done)
}

// Traceroute probes the path to dst with rising TTLs, reporting each hop
// address (zero for a silent hop) until dst answers or maxHops is reached.
// done receives the hop list when the probe completes.
func (h *Host) Traceroute(dst Addr, maxHops int, done func(hops []Addr)) {
	var hops []Addr
	var probe func(ttl int)
	probe = func(ttl int) {
		if ttl > maxHops {
			done(hops)
			return
		}
		h.icmp.Ping(dst, uint8(ttl), 2*time.Second, func(r icmp.EchoResult) {
			switch {
			case r.TimeExceeded:
				hops = append(hops, r.From)
				probe(ttl + 1)
			case r.TimedOut:
				hops = append(hops, 0)
				probe(ttl + 1)
			default:
				hops = append(hops, r.From)
				done(hops)
			}
		})
	}
	probe(1)
}

// FTManager returns the host's ft-TCP engine, initializing it on first use.
func (h *Host) FTManager() *core.Manager {
	if h.mgr == nil {
		if err := h.mgr0.Init(&h.tcp, &h.udp, h.addr); err != nil {
			panic(fmt.Sprintf("hydranet: %s: %v", h.name, err))
		}
		h.mgr0.SetBus(h.net.bus)
		h.mgr = &h.mgr0
	}
	return h.mgr
}

// Crash fail-stops the host. Volatile protocol state — TCP connections and
// replicated-port state — is lost, as on a real machine; listeners and
// daemons come back with the "reboot" (Restart).
func (h *Host) Crash() {
	h.node.Crash()
	h.tcp.Reset()
	if h.mgr != nil {
		h.mgr.Reset()
	}
}

// Restart brings a crashed host back up. Its connections are gone; use
// FTService.Recommission to rejoin a replica set.
func (h *Host) Restart() { h.node.Restart() }

// Alive reports whether the host is up.
func (h *Host) Alive() bool { return h.node.Alive() }

// SetProcessing changes the host's CPU cost model mid-run — gray-failure
// injection: a large per-frame delay makes the host slow without killing
// it, a fault the retransmission detector must still see
// (TestMonitorCleanOnGrayFailure).
func (h *Host) SetProcessing(procDelay, procPerByte time.Duration) {
	h.node.SetProc(procDelay, procPerByte)
}

// Dial opens a TCP connection from this host to a service.
func (h *Host) Dial(svc ServiceID) (*Conn, error) {
	return h.tcp.Connect(0, svc)
}

// DialEndpoint opens a TCP connection to an arbitrary endpoint.
func (h *Host) DialEndpoint(ep Endpoint) (*Conn, error) {
	return h.tcp.Connect(0, ep)
}

// Listen binds a plain TCP listener on this host.
func (h *Host) Listen(addr Addr, port uint16) (*Listener, error) {
	return h.tcp.Listen(addr, port)
}

// Redirector is a router equipped with a redirector table and a management
// daemon.
type Redirector struct {
	// Host is the underlying router node (for linking and addressing).
	Host *Host
	rd   redirector.Redirector
	dmn  *rmp.RedirectorDaemon // &dmn0 once Daemon has run
	dmn0 rmp.RedirectorDaemon
}

// AddRedirector creates a redirector node.
func (n *Net) AddRedirector(name string, cfg HostConfig) *Redirector {
	h := n.AddHost(name, cfg)
	h.ip.SetForwarding(true)
	r := &Redirector{Host: h}
	r.rd.Init(&h.ip).SetBus(n.bus)
	n.redirectors = append(n.redirectors, r)
	return r
}

// Table exposes the redirector table (inspection, manual setup).
func (r *Redirector) Table() *redirector.Redirector { return &r.rd }

// Daemon returns the management daemon, initializing it on first use (the
// redirector must have an address, i.e. at least one link).
func (r *Redirector) Daemon() *rmp.RedirectorDaemon {
	if r.dmn == nil {
		if err := r.dmn0.Init(&r.Host.udp, r.Host.node.Scheduler(), &r.rd, r.Host.addr); err != nil {
			panic(fmt.Sprintf("hydranet: %s: %v", r.Host.name, err))
		}
		r.dmn0.SetBus(r.Host.net.bus, r.Host.name)
		r.dmn = &r.dmn0
	}
	return r.dmn
}

// Mirror makes peer replicate this redirector's fault-tolerant table
// entries, so clients routed through either redirector reach the same
// replica sets (paper Figure 1). Call after both redirectors have
// addresses (links) and before deploying services.
func (r *Redirector) Mirror(peer *Redirector) {
	peer.Daemon() // ensure the peer is listening
	r.Daemon().AddPeer(peer.Host.addr)
}

// AddRouter creates a plain forwarding router with no redirector table.
func (n *Net) AddRouter(name string, cfg HostConfig) *Host {
	h := n.AddHost(name, cfg)
	h.ip.SetForwarding(true)
	return h
}

// Link connects two hosts with auto-assigned addresses 10.k.0.1/10.k.0.2 on
// a fresh /24. There are 256 such subnets; a 257th Link panics. Use
// LinkAddr for explicit addressing.
func (n *Net) Link(a, b *Host, cfg LinkConfig) *netsim.Link {
	if n.nextSubnet == 256 {
		panic("hydranet: Link: all 256 auto-assigned subnets 10.k.0.0/24 are taken; use LinkAddr")
	}
	n.nextSubnet++
	k := byte(n.nextSubnet)
	return n.LinkAddr(a, b, cfg,
		ipv4.AddrFrom4(10, k, 0, 1), ipv4.AddrFrom4(10, k, 0, 2))
}

// LinkAddr connects two hosts with explicit addresses. Both must share one
// /24, distinct from every other link's.
func (n *Net) LinkAddr(a, b *Host, cfg LinkConfig, aAddr, bAddr Addr) *netsim.Link {
	l := n.fab.Connect(&a.node, &b.node, cfg)
	aIf := a.node.NumInterfaces() - 1
	bIf := b.node.NumInterfaces() - 1
	a.ip.SetAddr(aIf, aAddr)
	b.ip.SetAddr(bIf, bAddr)
	if a.addr == 0 {
		a.addr = aAddr
	}
	if b.addr == 0 {
		b.addr = bAddr
	}
	n.links = append(n.links, linkInfo{
		a: a, b: b, aIf: aIf, bIf: bIf, aAddr: aAddr, bAddr: bAddr,
		prefix:     ipv4.Prefix{Addr: aAddr, Bits: 24},
		underlying: l,
	})
	return l
}

// AutoRoute computes shortest-path routes between all link subnets and
// installs them on every node. Call it after the topology is final.
func (n *Net) AutoRoute() {
	// Adjacency by host index: host i's edges (neighbour, local ifindex) are
	// edges[first[i]:first[i+1]], in link order. One allocation holds the int
	// scratch: first, fill, and the BFS's first hops (unreached < 0) and queue.
	type edge struct{ peer, ifx int }
	nh := len(n.hosts)
	ints := make([]int, 4*nh+1)
	first, fill, firstHop, queue := ints[:nh+1], ints[nh+1:2*nh+1], ints[2*nh+1:3*nh+1], ints[3*nh+1:3*nh+1]
	for _, li := range n.links {
		first[li.a.idx+1]++
		first[li.b.idx+1]++
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	edges := make([]edge, 2*len(n.links))
	copy(fill, first)
	for _, li := range n.links {
		edges[fill[li.a.idx]] = edge{peer: li.b.idx, ifx: li.aIf}
		fill[li.a.idx]++
		edges[fill[li.b.idx]] = edge{peer: li.a.idx, ifx: li.bIf}
		fill[li.b.idx]++
	}
	const unreached, source = -1, -2
	routes := make([]ipv4.Route, 0, 3*len(n.links)+1) // at most 3 per link and a default
	for _, h := range n.hosts {
		// BFS from h, remembering the first-hop interface.
		for i := range firstHop {
			firstHop[i] = unreached
		}
		firstHop[h.idx] = source
		queue = append(queue[:0], h.idx)
		for i := 0; i < len(queue); i++ {
			cur := queue[i]
			for _, e := range edges[first[cur]:first[cur+1]] {
				if firstHop[e.peer] != unreached {
					continue
				}
				if cur == h.idx {
					firstHop[e.peer] = e.ifx
				} else {
					firstHop[e.peer] = firstHop[cur]
				}
				queue = append(queue, e.peer)
			}
		}
		routes = routes[:0]
		for _, li := range n.links {
			switch {
			case li.a == h:
				routes = append(routes, ipv4.Route{Dst: li.prefix, Ifindex: li.aIf})
			case li.b == h:
				routes = append(routes, ipv4.Route{Dst: li.prefix, Ifindex: li.bIf})
			default:
				// Prefix route toward whichever endpoint is reachable, plus
				// host routes so each interface address is reached via its
				// owner (a /24 is shared by both ends of the link, and the
				// shortest path to each end can differ).
				aIfx, bIfx := firstHop[li.a.idx], firstHop[li.b.idx]
				if aIfx >= 0 {
					routes = append(routes,
						ipv4.Route{Dst: li.prefix, Ifindex: aIfx},
						ipv4.Route{Dst: ipv4.Prefix{Addr: li.aAddr, Bits: 32}, Ifindex: aIfx})
				}
				if bIfx >= 0 {
					if aIfx < 0 {
						routes = append(routes, ipv4.Route{Dst: li.prefix, Ifindex: bIfx})
					}
					routes = append(routes,
						ipv4.Route{Dst: ipv4.Prefix{Addr: li.bAddr, Bits: 32}, Ifindex: bIfx})
				}
			}
		}
		// Default route toward the nearest redirector: in HydraNet,
		// traffic for replicated services — addresses that may belong to
		// no physical host — flows through redirectors ("the ISP routes
		// its traffic through a redirector", paper Section 1).
		if !slices.ContainsFunc(n.redirectors, func(r *Redirector) bool { return r.Host == h }) {
			for _, r := range n.redirectors {
				if ifx := firstHop[r.Host.idx]; ifx >= 0 {
					routes = append(routes, ipv4.Route{Ifindex: ifx})
					break
				}
			}
		}
		h.ip.Routes().Add(routes...)
	}
}
