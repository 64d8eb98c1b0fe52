package rmp

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hydranet/internal/core"
	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/obs"
	"hydranet/internal/redirector"
	"hydranet/internal/sim"
	"hydranet/internal/udp"
)

// RedirectorDaemonStats counts redirector-side management activity.
type RedirectorDaemonStats struct {
	Registrations       uint64 `json:"registrations"`
	Leaves              uint64 `json:"leaves"`
	Suspicions          uint64 `json:"suspicions"`
	ProbesSent          uint64 `json:"probes_sent"`
	HostsFailed         uint64 `json:"hosts_failed"`
	Reconfigs           uint64 `json:"reconfigs"`
	CongestionEvictions uint64 `json:"congestion_evictions"`
}

// RedirectorDaemon is the management daemon co-located with a redirector.
// It is the authority for each service's replica chain: it accepts
// registrations, keeps the redirector table in sync, and runs the
// reconfiguration procedure when a failure is reported.
type RedirectorDaemon struct {
	rel   Reliable
	rd    *redirector.Redirector
	sched *sim.Scheduler
	addr  ipv4.Addr

	// services is sorted by key, the order of every walk over them that
	// transmits. The first one registered lives in the daemon.
	services  []*svcState
	services0 [1]*svcState
	svc0      svcState
	probing   int                 // services with a probe open
	peers     []udp.Endpoint      // peer redirectors mirroring our FT entries
	mirrored  map[inet.Key]uint32 // last version applied per mirrored service; made by the first MIRROR
	strikes   int                 // congestion policy: all-alive probes that evict the tail; zero disables it
	stats     RedirectorDaemonStats
	bus       *obs.Bus
	node      string
	in        Message // the datagram being handled, decoded; its Hosts are reused

	// onReconfig, if set, observes completed reconfigurations (testing and
	// measurement).
	onReconfig func(svc core.ServiceID, failed []ipv4.Addr)
}

type svcState struct {
	d           *RedirectorDaemon
	svc         core.ServiceID
	chain       []ipv4.Addr  // S0 (primary) first
	probe       []probeState // the open probe's members; empty when none is open
	outstanding int          // the open probe's pings still unanswered
	probeID     uint32
	version     uint32 // bumped on every chain change; orders CHAIN-SET and MIRROR

	// Congestion-eviction bookkeeping: times of all-alive probe outcomes
	// within strikeWindow.
	aliveStrikes []time.Duration

	chain0 [3]ipv4.Addr  // chain's backing up to three members
	probe0 [3]probeState // probe's
	rel0   [3]relPending // records the service lends the daemon's endpoint, one per member
}

// strikeWindow is how long an all-alive probe outcome counts toward the
// congestion policy's strikes.
const strikeWindow = 2 * time.Minute

// Init starts a daemon embedded by value on the redirector node. It must not
// be copied afterwards.
func (d *RedirectorDaemon) Init(udpStack *udp.Stack, sched *sim.Scheduler, rd *redirector.Redirector, addr ipv4.Addr) error {
	d.rd, d.sched, d.addr, d.services = rd, sched, addr, d.services0[:0]
	if err := d.rel.Init(udpStack, sched, addr, ManagementPort, d); err != nil {
		return fmt.Errorf("rmp: redirector daemon: %w", err)
	}
	return nil
}

// service returns svc's state, or nil and where in services it would go.
func (d *RedirectorDaemon) service(svc core.ServiceID) (*svcState, int) {
	i, ok := slices.BinarySearchFunc(d.services, svc.Key(), func(s *svcState, k inet.Key) int { return cmp.Compare(s.svc.Key(), k) })
	if !ok {
		return nil, i
	}
	return d.services[i], i
}

// Stats returns a snapshot of the daemon counters.
func (d *RedirectorDaemon) Stats() RedirectorDaemonStats { return d.stats }

// SetBus attaches an observability event bus for registration and
// reconfiguration events. node names the redirector in the events (the
// daemon itself has no handle on the fabric). A nil bus disables emission.
func (d *RedirectorDaemon) SetBus(b *obs.Bus, node string) {
	d.bus = b
	d.node = node
}

// noteReconfig publishes a chain-change event; cause says why and hosts are
// the members that left the chain.
func (d *RedirectorDaemon) noteReconfig(svc core.ServiceID, cause string, hosts []ipv4.Addr) {
	if b := d.bus; b.Enabled(obs.KindReconfig) {
		b.Publish(obs.Event{
			Kind: obs.KindReconfig, Node: d.node, Service: svc,
			Cause: cause, Hosts: hosts,
		})
	}
}

// AddPeer registers a peer redirector that should mirror this daemon's
// fault-tolerant table entries, so clients behind it reach the same replica
// sets (paper Figure 1: hosts "accessible to all clients through at least
// one redirector"). Mirroring is one-way; the authority for a service is
// the redirector its replicas register with.
func (d *RedirectorDaemon) AddPeer(addr ipv4.Addr) {
	d.peers = append(d.peers, udp.Endpoint{Addr: addr, Port: ManagementPort})
	// Push current state so late-added peers converge.
	for _, s := range d.services {
		d.pushMirror(s)
	}
}

// SetCongestionPolicy enables eviction of live-but-disruptive replicas
// (paper Section 1: "it should be possible to temporarily shut down servers
// when they cause service disruption due to congestion, and bring them back
// in when the congestion clears"). When strikes suspicions end in all-alive
// probe outcomes within strikeWindow, the chain tail backup is evicted — it
// can rejoin later via re-registration (Recommission). Zero strikes, the
// default, disables the policy.
func (d *RedirectorDaemon) SetCongestionPolicy(strikes int) { d.strikes = strikes }

// OnReconfig installs an observer for completed failure reconfigurations.
func (d *RedirectorDaemon) OnReconfig(fn func(svc core.ServiceID, failed []ipv4.Addr)) {
	d.onReconfig = fn
}

// Chain returns the current replica chain for svc (primary first).
func (d *RedirectorDaemon) Chain(svc core.ServiceID) []ipv4.Addr {
	s, _ := d.service(svc)
	if s == nil {
		return nil
	}
	return append([]ipv4.Addr(nil), s.chain...)
}

func (d *RedirectorDaemon) onMessage(from udp.Endpoint, payload []byte) {
	msg := &d.in
	if msg.Unmarshal(payload) != nil {
		return
	}
	switch msg.Type {
	case MsgRegister:
		d.register(msg)
	case MsgRegisterScale:
		d.stats.Registrations++
		d.rd.AddTarget(msg.Service,
			redirector.Target{Host: msg.Host, Metric: int(msg.Metric)})
	case MsgLeave:
		d.leave(msg)
	case MsgSuspect:
		d.suspect(msg.Service)
	case MsgMirror:
		d.applyMirror(msg)
	}
	if d.rd.IP().Poisoned() {
		msg.scribble()
	}
}

// register handles creation of primary and backup servers.
func (d *RedirectorDaemon) register(msg *Message) {
	s, i := d.service(msg.Service)
	if s == nil {
		if s = &d.svc0; s.d != nil {
			s = new(svcState)
		}
		s.d, s.svc, s.chain, s.probe = d, msg.Service, s.chain0[:0], s.probe0[:0]
		d.rel.lend(s.rel0[:])
		d.services = slices.Insert(d.services, i, s)
	}
	if slices.Contains(s.chain, msg.Host) {
		return // duplicate registration (retried datagram)
	}
	d.stats.Registrations++
	if b := d.bus; b.Enabled(obs.KindRegistration) {
		b.Publish(obs.Event{
			Kind: obs.KindRegistration, Node: d.node, Service: msg.Service,
			Host: msg.Host, Primary: msg.Mode == core.ModePrimary,
		})
	}
	if msg.Mode == core.ModePrimary {
		s.chain = slices.Insert(s.chain, 0, msg.Host)
	} else {
		s.chain = append(s.chain, msg.Host)
	}
	d.applyChain(s)
}

// leave handles voluntary departure of a replica (FT chain member or
// scaling-mode target).
func (d *RedirectorDaemon) leave(msg *Message) {
	s, _ := d.service(msg.Service)
	if s == nil {
		// Not an FT service here: drop any scaling-mode target.
		d.rd.RemoveTarget(msg.Service, msg.Host)
		d.stats.Leaves++
		return
	}
	if removed := removeHost(&s.chain, msg.Host); !removed {
		return
	}
	d.stats.Leaves++
	d.applyChain(s)
	d.noteReconfig(msg.Service, "leave", []ipv4.Addr{msg.Host})
}

// probeState is one member of an open probe, and its ping's result handler.
type probeState struct {
	s     *svcState
	host  ipv4.Addr
	alive bool // acknowledged its ping, or heard from (heardHook)
}

// onResult takes the verdict on the member's ping; the last one ends the
// probe.
func (m *probeState) onResult(delivered bool) {
	if delivered {
		m.alive = true
	}
	if m.s.outstanding--; m.s.outstanding == 0 {
		m.s.d.finishProbe(m.s)
	}
}

// suspect runs the failure-identification procedure: probe every chain
// member; the ones whose daemons never acknowledge, and that send nothing
// through the redirector meanwhile, are declared failed and removed, and the
// survivors receive their new chain positions. The paper notes
// identification is simple because a failure partitions the acknowledgment
// channel; probing from the redirector is the concrete mechanism here. Each
// ping's attempts are timed from the member's measured RTO (Reliable).
func (d *RedirectorDaemon) suspect(svc core.ServiceID) {
	s, _ := d.service(svc)
	if s == nil || len(s.probe) > 0 || len(s.chain) == 0 {
		return
	}
	d.stats.Suspicions++
	s.probeID++
	for _, host := range s.chain {
		s.probe = append(s.probe, probeState{s: s, host: host})
	}
	// The first probe opened starts listening for heard-from evidence.
	if d.probing++; d.probing == 1 {
		d.rd.SetHeardHook((*heardHook)(d))
	}
	s.outstanding = len(s.probe)
	for i := range s.probe {
		m := &s.probe[i]
		ping := Message{Type: MsgPing, Service: svc, Host: m.host, ProbeID: s.probeID}
		d.stats.ProbesSent++
		d.rel.Send(udp.Endpoint{Addr: m.host, Port: ManagementPort}, &ping, m)
	}
}

// A *RedirectorDaemon converted to heardHook hears the redirector's forwarded
// packets while a probe is open.
type heardHook RedirectorDaemon

// HeardFrom is the heard-from rule: while a probe is open, any packet the
// redirector forwards from a probed member answers for that member as its
// ping's acknowledgment would. A live member behind a deep queue can delay
// the ping past every attempt while its own traffic still flows; a dead host
// sends nothing. Traffic of the member's that bypasses the redirector is
// never seen here, so it is no evidence.
func (h *heardHook) HeardFrom(member ipv4.Addr) {
	for _, s := range h.services {
		for i := range s.probe {
			if s.probe[i].host == member {
				s.probe[i].alive = true
			}
		}
	}
}

func (d *RedirectorDaemon) finishProbe(s *svcState) {
	svc := s.svc
	var failed []ipv4.Addr
	for _, m := range s.probe {
		if !m.alive {
			failed = append(failed, m.host)
		}
	}
	s.probe = s.probe[:0]
	// The last probe closed stops listening.
	if d.probing--; d.probing == 0 {
		d.rd.SetHeardHook(nil)
	}
	if len(failed) == 0 {
		// All members alive: a false positive, or congestion somewhere in
		// the chain. Under the congestion policy, repeated strikes evict
		// the tail backup (never the primary): shrinking the chain removes
		// potential blockers until the flow recovers; an evicted server
		// can re-register once its congestion clears.
		if d.strikes > 0 && len(s.chain) > 1 {
			now := d.sched.Now()
			stale := func(ts time.Duration) bool { return ts < now-strikeWindow }
			s.aliveStrikes = append(slices.DeleteFunc(s.aliveStrikes, stale), now)
			if len(s.aliveStrikes) >= d.strikes {
				s.aliveStrikes = s.aliveStrikes[:0]
				tail := s.chain[len(s.chain)-1]
				d.stats.CongestionEvictions++
				removeHost(&s.chain, tail)
				d.applyChain(s)
				d.noteReconfig(svc, "congestion-evicted", []ipv4.Addr{tail})
				if d.onReconfig != nil {
					d.onReconfig(svc, []ipv4.Addr{tail})
				}
			}
		}
		return
	}
	for _, host := range failed {
		d.stats.HostsFailed++
		removeHost(&s.chain, host)
	}
	d.applyChain(s)
	d.noteReconfig(svc, "failed", failed)
	if d.onReconfig != nil {
		d.onReconfig(svc, failed)
	}
}

// applyMirror installs a peer's FT entry into the local table
// (last-writer-wins by version). msg.Hosts is the daemon's decode scratch:
// SetFTReplicas copies the backups, so nothing keeps it past the handler.
func (d *RedirectorDaemon) applyMirror(msg *Message) {
	if last, ok := d.mirrored[msg.Service.Key()]; ok && int32(msg.ProbeID-last) <= 0 {
		return // stale or duplicate update
	}
	if d.mirrored == nil {
		d.mirrored = make(map[inet.Key]uint32)
	}
	d.mirrored[msg.Service.Key()] = msg.ProbeID
	if len(msg.Hosts) == 0 {
		d.rd.Remove(msg.Service)
		return
	}
	d.rd.SetFTReplicas(msg.Service, msg.Hosts[0], msg.Hosts[1:])
}

// pushMirror replicates the service's chain to every peer redirector.
func (d *RedirectorDaemon) pushMirror(s *svcState) {
	for _, peer := range d.peers {
		msg := Message{Type: MsgMirror, Service: s.svc, ProbeID: s.version, Hosts: s.chain}
		d.rel.Send(peer, &msg, nil)
	}
}

// applyChain synchronizes the redirector table with the chain and pushes
// each member its position.
func (d *RedirectorDaemon) applyChain(s *svcState) {
	svc := s.svc
	d.stats.Reconfigs++
	s.version++
	defer d.pushMirror(s)
	if len(s.chain) == 0 {
		d.rd.Remove(svc)
		return
	}
	d.rd.SetFTReplicas(svc, s.chain[0], s.chain[1:])
	for i, host := range s.chain {
		set := Message{
			Type:    MsgChainSet,
			Service: svc,
			Host:    host,
			Mode:    core.ModeBackup,
			Gated:   i < len(s.chain)-1,
			ProbeID: s.version,
		}
		if i == 0 {
			set.Mode = core.ModePrimary
		} else {
			set.Upstream = s.chain[i-1]
		}
		d.rel.Send(udp.Endpoint{Addr: host, Port: ManagementPort}, &set, nil)
	}
}

// removeHost deletes host from chain and reports whether it was there.
func removeHost(chain *[]ipv4.Addr, host ipv4.Addr) bool {
	i := slices.Index(*chain, host)
	if i >= 0 {
		*chain = slices.Delete(*chain, i, i+1)
	}
	return i >= 0
}
