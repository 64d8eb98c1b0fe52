package rmp

import (
	"fmt"

	"hydranet/internal/core"
	"hydranet/internal/hostserver"
	"hydranet/internal/ipv4"
	"hydranet/internal/sim"
	"hydranet/internal/tcp"
	"hydranet/internal/udp"
)

// HostDaemon is the management daemon on a HydraNet host. It registers
// local replicas with the redirector, applies chain configuration pushed
// back by the redirector, and forwards failure suspicions.
type HostDaemon struct {
	rel        Reliable
	mgr        *core.Manager
	hs         *hostserver.HostServer
	tcpStack   *tcp.Stack
	hostAddr   ipv4.Addr
	redirector udp.Endpoint
	in         Message // the datagram being handled, decoded
}

// Init starts a daemon embedded by value, which must not be copied
// afterwards: it binds the management port and wires the ft-TCP failure
// estimator to SUSPECT reports.
func (d *HostDaemon) Init(udpStack *udp.Stack, sched *sim.Scheduler, mgr *core.Manager,
	hs *hostserver.HostServer, tcpStack *tcp.Stack, hostAddr, redirectorAddr ipv4.Addr) error {
	d.mgr, d.hs, d.tcpStack, d.hostAddr = mgr, hs, tcpStack, hostAddr
	d.redirector = udp.Endpoint{Addr: redirectorAddr, Port: ManagementPort}
	if err := d.rel.Init(udpStack, sched, hostAddr, ManagementPort, d); err != nil {
		return fmt.Errorf("rmp: host daemon: %w", err)
	}
	mgr.OnSuspect((*suspicionReport)(d))
	return nil
}

// RegisterFT deploys a fault-tolerant replica locally and registers it with
// the redirector: the virtual host is installed, the port marked replicated
// (setportopt), the listener wired under ft-TCP hooks, and a REGISTER sent.
func (d *HostDaemon) RegisterFT(svc core.ServiceID, mode core.Mode, det core.DetectorParams,
	listener *tcp.Listener) *core.ReplicatedPort {
	d.hs.VHost(svc.Addr)
	port := d.mgr.SetPortOpt(svc, mode, det)
	port.AttachListener(listener)
	msg := Message{Type: MsgRegister, Service: svc, Host: d.hostAddr, Mode: mode}
	d.rel.Send(d.redirector, &msg, nil)
	return port
}

// RegisterScale deploys a plain (scaling) replica: virtual host plus a
// nearest-replica redirector entry; no ft-TCP machinery.
func (d *HostDaemon) RegisterScale(svc core.ServiceID, metric uint16) {
	d.hs.VHost(svc.Addr)
	msg := Message{Type: MsgRegisterScale, Service: svc, Host: d.hostAddr, Metric: metric}
	d.rel.Send(d.redirector, &msg, nil)
}

// Leave withdraws this replica from the service (deletion of primary or
// backup server, paper Section 4.4).
func (d *HostDaemon) Leave(svc core.ServiceID) {
	d.mgr.ClearPort(svc)
	d.hs.ReleaseVHost(svc.Addr)
	msg := Message{Type: MsgLeave, Service: svc, Host: d.hostAddr}
	d.rel.Send(d.redirector, &msg, nil)
}

// A *HostDaemon converted to suspicionReport forwards the failure
// estimator's suspicions to the redirector.
type suspicionReport HostDaemon

func (r *suspicionReport) Suspect(svc core.ServiceID) {
	d := (*HostDaemon)(r)
	msg := Message{Type: MsgSuspect, Service: svc, Host: d.hostAddr}
	d.rel.Send(d.redirector, &msg, nil)
}

func (d *HostDaemon) onMessage(from udp.Endpoint, payload []byte) {
	msg := &d.in
	if msg.Unmarshal(payload) != nil {
		return
	}
	switch msg.Type {
	case MsgChainSet:
		d.applyChainSet(msg)
	case MsgPing:
		// Liveness probe: the reliable layer's acknowledgment is the
		// "pong" — nothing further to do.
	default:
		// Host daemons ignore redirector-bound operations.
	}
	if d.tcpStack.IP().Poisoned() {
		msg.scribble()
	}
}

// applyChainSet installs this replica's chain position, unless a newer one
// has already arrived: the reliable layer retransmits each CHAIN-SET until
// it is acknowledged, so an older one can land last.
func (d *HostDaemon) applyChainSet(msg *Message) {
	port := d.mgr.Port(msg.Service)
	if port == nil || !port.AdvanceVersion(msg.ProbeID) {
		return
	}
	port.SetUpstream(msg.Upstream)
	switch {
	case msg.Mode == core.ModePrimary && port.Mode() == core.ModeBackup:
		port.Promote()
	case msg.Mode == core.ModeBackup && port.Mode() == core.ModePrimary:
		// Registration races can briefly make a backup the sole (hence
		// primary) member; the authoritative chain demotes it.
		port.Demote()
	}
	port.SetGated(msg.Gated)
}
