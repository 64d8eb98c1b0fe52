package hydranet

import (
	"fmt"
	"slices"
	"time"

	"hydranet/internal/core"
	"hydranet/internal/obs"
	"hydranet/internal/rmp"
	"hydranet/internal/udp"
)

// Daemon returns the host's management daemon, creating it on first use
// bound to the given redirector. A host talks to exactly one redirector.
func (h *Host) Daemon(rd *Redirector) *rmp.HostDaemon {
	if h.dmn == nil {
		// Make sure the redirector side is listening before we register.
		rd.Daemon()
		if err := h.dmn0.Init(&h.udp, h.node.Scheduler(), h.FTManager(), &h.hs, &h.tcp, h.addr, rd.Host.addr); err != nil {
			panic(fmt.Sprintf("hydranet: %s: %v", h.name, err))
		}
		h.dmn = &h.dmn0
	}
	return h.dmn
}

// FTOptions tune a fault-tolerant deployment.
type FTOptions struct {
	// Detector configures the failure estimator on every replica.
	Detector DetectorParams
}

// FTReplica is one deployed replica of a fault-tolerant service.
type FTReplica struct {
	Host     *Host
	Port     *core.ReplicatedPort
	Listener *Listener
}

// FTService is a deployed fault-tolerant service.
type FTService struct {
	net       *Net
	svc       ServiceID
	rd        *Redirector
	opts      FTOptions
	accept    func(*Conn)
	replicas  []FTReplica  // complete when DeployFT returns, so its elements stay put
	replicas0 [3]FTReplica // replicas' backing up to three
}

// DeployFT replicates a TCP service across hosts (hosts[0] becomes the
// primary, the rest backups in chain order) and registers the replica set
// with the redirector. accept is invoked on every replica for each accepted
// connection — the server application runs on all replicas, which is what
// keeps the backups' state hot.
//
// Registration travels over the (simulated) management protocol; run the
// network briefly (Settle) before clients dial.
func (n *Net) DeployFT(svc ServiceID, rd *Redirector, hosts []*Host,
	opts FTOptions, accept func(*Conn)) (*FTService, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("hydranet: DeployFT needs at least one host")
	}
	s := &n.ft0
	if s.net != nil {
		s = new(FTService)
	}
	s.net, s.svc, s.rd, s.opts, s.accept = n, svc, rd, opts, accept
	s.replicas = s.replicas0[:0]
	for i, h := range hosts {
		mode := ModeBackup
		if i == 0 {
			mode = ModePrimary
		}
		listener, err := h.tcp.Listen(svc.Addr, svc.Port)
		if err != nil {
			return nil, fmt.Errorf("hydranet: %s: %w", h.name, err)
		}
		listener.SetAcceptFunc(accept)
		port := h.Daemon(rd).RegisterFT(svc, mode, opts.Detector, listener)
		s.replicas = append(s.replicas, FTReplica{Host: h, Port: port, Listener: listener})
	}
	return s, nil
}

// Replicas returns the deployed replicas in registration order.
func (s *FTService) Replicas() []*FTReplica {
	out := make([]*FTReplica, len(s.replicas))
	for i := range s.replicas {
		out[i] = &s.replicas[i]
	}
	return out
}

// Primary returns the replica whose host the redirector currently treats as
// primary (nil if the service has no live chain).
func (s *FTService) Primary() *FTReplica {
	chain := s.rd.Daemon().Chain(s.svc)
	if len(chain) == 0 {
		return nil
	}
	for i, r := range s.replicas {
		if r.Host.addr == chain[0] {
			return &s.replicas[i]
		}
	}
	return nil
}

// Chain returns the current chain membership as host addresses, primary
// first.
func (s *FTService) Chain() []Addr { return s.rd.Daemon().Chain(s.svc) }

// CrashPrimary fail-stops the current primary's host (failure injection).
func (s *FTService) CrashPrimary() *Host {
	p := s.Primary()
	if p == nil {
		return nil
	}
	p.Host.Crash()
	return p.Host
}

// Leave withdraws a replica voluntarily (deletion of primary or backup
// server, paper Section 4.4): the chain is respliced and, if the primary
// left, its successor is promoted.
func (s *FTService) Leave(h *Host) error {
	if slices.ContainsFunc(s.replicas, func(r FTReplica) bool { return r.Host == h }) {
		h.Daemon(s.rd).Leave(s.svc)
		return nil
	}
	return fmt.Errorf("hydranet: %s is not a replica of %s", h.name, s.svc)
}

// Recommission brings a recovered (restarted) host back into the replica
// set as a backup — the paper's future-work item, realized for new
// connections: the rejoined replica has no state for connections opened
// before it returned, so those continue on the survivors; connections
// accepted afterwards are replicated onto it like any backup. The paper's
// open problem of transferring live TCP state to a rejoining server remains
// out of scope here too.
func (s *FTService) Recommission(h *Host) error {
	if !h.Alive() {
		return fmt.Errorf("hydranet: recommissioning %s: host is down (Restart it first)", h.name)
	}
	var rep *FTReplica
	for i := range s.replicas {
		if s.replicas[i].Host == h {
			rep = &s.replicas[i]
		}
	}
	if rep == nil {
		return fmt.Errorf("hydranet: %s was never a replica of %s", h.name, s.svc)
	}
	// The "rebooted" server program binds its listener again; the old
	// listener object survives a crash in this model, so reuse it if it is
	// still registered, otherwise create a fresh one.
	listener, err := h.tcp.Listen(s.svc.Addr, s.svc.Port)
	if err == nil {
		listener.SetAcceptFunc(s.accept)
		rep.Listener = listener
	} else {
		listener = rep.Listener
	}
	rep.Port = h.Daemon(s.rd).RegisterFT(s.svc, ModeBackup, s.opts.Detector, listener)
	if b := &h.net.bus; b.Enabled(obs.KindRecommission) {
		b.Publish(obs.Event{
			Kind: obs.KindRecommission, Node: h.name, Service: s.svc,
		})
	}
	return nil
}

// ScaleTarget is a scaling-mode replica host with its routing metric.
type ScaleTarget struct {
	Host   *Host
	Metric int
}

// DeployScale replicates a service for scalability only: the redirector
// tunnels each request to the nearest (lowest-metric) replica; there is no
// fault-tolerance machinery (paper Section 3).
func (n *Net) DeployScale(svc ServiceID, rd *Redirector, targets []ScaleTarget,
	accept func(*Conn)) error {
	for _, t := range targets {
		listener, err := t.Host.tcp.Listen(svc.Addr, svc.Port)
		if err != nil {
			return fmt.Errorf("hydranet: %s: %w", t.Host.name, err)
		}
		listener.SetAcceptFunc(accept)
		t.Host.Daemon(rd).RegisterScale(svc, uint16(t.Metric))
	}
	return nil
}

// UDPRecvFunc handles datagrams delivered to a bound UDP service socket.
type UDPRecvFunc = udp.RecvFunc

// UDPEndpoint is a UDP address:port pair.
type UDPEndpoint = udp.Endpoint

// DeployScaleUDP replicates a UDP service for scalability: the redirector
// tunnels each datagram to the nearest replica. The paper's redirector
// table holds "pairs of IP addresses and port numbers" for TCP *or* UDP;
// this is the UDP side. handler is invoked per target host so replicas can
// keep per-host state.
func (n *Net) DeployScaleUDP(svc ServiceID, rd *Redirector, targets []ScaleTarget,
	handler func(h *Host) UDPRecvFunc) error {
	for _, t := range targets {
		if err := t.Host.udp.Bind(svc.Addr, svc.Port, handler(t.Host)); err != nil {
			return fmt.Errorf("hydranet: %s: %w", t.Host.name, err)
		}
		t.Host.Daemon(rd).RegisterScale(svc, uint16(t.Metric))
	}
	return nil
}

// Settle runs the network for a second of virtual time, long enough for
// management-protocol exchanges (registration, chain setup) to complete.
func (n *Net) Settle() { n.RunFor(time.Second) }
