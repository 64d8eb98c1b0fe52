// Package core implements the HydraNet-FT fault-tolerant TCP machinery —
// the paper's primary contribution (Section 4). A replica of a TCP service
// is marked primary or backup per replicated port. Replicas are
// daisy-chained along a one-way UDP acknowledgment channel
// S_N → … → S_1 → S_0 (primary):
//
//   - every replica receives each client packet (multicast by the
//     redirector), but only the primary's responses reach the client;
//   - a replica deposits (and thereby acknowledges) byte k of the client
//     stream only after its successor reported depositing past k;
//   - a replica sends byte k of the response stream only after its
//     successor reported sending past k;
//   - the last replica in the chain is free to proceed immediately.
//
// The same gating applies to the SYN and FIN, which occupy sequence space,
// so connection setup and teardown are chain-ordered too. Repeated client
// retransmissions — the signature of a broken flow-control loop — feed a
// low-latency failure estimator that triggers reconfiguration, and so does
// every RTO for which a gate holds bytes behind a silent successor, or the
// chain's tail waits on a silent predecessor.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/obs"
	"hydranet/internal/sim"
	"hydranet/internal/tcp"
	"hydranet/internal/udp"
)

// ServiceID identifies a replicated transport-level service access point:
// the virtual-host address and well-known TCP port.
type ServiceID = inet.Endpoint

// Mode is a replica's role for one replicated port.
type Mode int

// Replica roles.
const (
	ModePrimary Mode = iota + 1
	ModeBackup
)

func (m Mode) String() string {
	switch m {
	case ModePrimary:
		return "primary"
	case ModeBackup:
		return "backup"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DetectorParams configure the per-port failure estimator — the
// detector-parameters argument of the paper's setportopt() call.
type DetectorParams struct {
	// RetransmitThreshold is how many client retransmissions on one
	// connection raise a failure suspicion; a replica's own timeouts, each
	// RTO a gate holds bytes behind a silent successor, and each RTO the
	// tail's output waits on a silent predecessor count the same way. The
	// paper notes the trade-off: low values detect quickly but risk false
	// positives and interfere with TCP congestion control
	// (triple-duplicate ACKs are normal). Default 4.
	RetransmitThreshold int
}

// suspectCooldown suppresses repeated reports for the same port while a
// reconfiguration is presumably in progress.
const suspectCooldown = 2 * time.Second

func (p DetectorParams) withDefaults() DetectorParams {
	if p.RetransmitThreshold == 0 {
		p.RetransmitThreshold = 4
	}
	return p
}

// pendingConnTTL bounds how long a chain-message-created placeholder for a
// connection whose SYN has not arrived yet is kept before it is discarded.
const pendingConnTTL = time.Minute

// Suspecter is notified when the failure estimator on a replicated port
// trips. The replica management daemon forwards the report to the
// redirector.
type Suspecter interface{ Suspect(svc ServiceID) }

// Stats counts manager-level events.
type Stats struct {
	ChainMsgsSent     uint64 `json:"chain_msgs_sent"`
	ChainMsgsReceived uint64 `json:"chain_msgs_received"`
	ChainMsgsBad      uint64 `json:"chain_msgs_bad"`
	ChainMsgsOrphan   uint64 `json:"chain_msgs_orphan"` // for services not replicated here
	Suspicions        uint64 `json:"suspicions"`
	Promotions        uint64 `json:"promotions"`
}

// Manager is the per-host-server ft-TCP engine: it owns the replicated-port
// table and the host's end of the acknowledgment channel.
type Manager struct {
	sched    *sim.Scheduler
	tcpStack *tcp.Stack
	udpStack *udp.Stack
	hostAddr ipv4.Addr // real address, used as acknowledgment-channel source
	// ports is a handful, so a scan beats a hash; the first lives here.
	ports   []*ReplicatedPort
	ports0  [2]*ReplicatedPort
	port0   ReplicatedPort
	stats   Stats
	suspect Suspecter
	bus     *obs.Bus
	// records holds every port's ft-TCP records; they are never reused.
	records inet.Slab[ftConn]

	// Scratch for the acknowledgment channel: rxMsg is the message being
	// handled (valid only in chainChannel.Receive), txBuf the encoding of the
	// one being sent (udp.SendTo copies it into the pooled frame).
	rxMsg ChainMsg
	txBuf [chainMsgLen]byte

	// chainLoss artificially drops outgoing acknowledgment-channel
	// messages with the given probability — an ablation instrument for
	// studying the paper's trade-off of running the channel over
	// unreliable UDP (Section 4.3).
	chainLoss float64
}

// Init starts the engine, which must not be copied afterwards, on the host
// server's real (non-virtual) address, and binds the acknowledgment channel.
func (m *Manager) Init(tcpStack *tcp.Stack, udpStack *udp.Stack, hostAddr ipv4.Addr) error {
	m.sched, m.tcpStack, m.udpStack, m.hostAddr = tcpStack.Scheduler(), tcpStack, udpStack, hostAddr
	m.ports = m.ports0[:0]
	if err := udpStack.Bind(0, AckChannelPort, (*chainChannel)(m)); err != nil {
		return fmt.Errorf("core: binding acknowledgment channel: %w", err)
	}
	return nil
}

// OnSuspect installs the failure-report callback.
func (m *Manager) OnSuspect(s Suspecter) { m.suspect = s }

// SetBus attaches an observability event bus for chain-channel, suspicion
// and role-change events. A nil bus (the default) disables all emission.
func (m *Manager) SetBus(b *obs.Bus) { m.bus = b }

func (m *Manager) nodeName() string { return m.tcpStack.IP().Node().Name() }

// SetChainLoss makes the manager drop outgoing acknowledgment-channel
// messages with probability p (ablation instrument; default 0).
func (m *Manager) SetChainLoss(p float64) { m.chainLoss = p }

// Stats returns a snapshot of the manager counters.
func (m *Manager) Stats() Stats { return m.stats }

// SetPortOpt marks a TCP port replicated with the given role — the paper's
// setportopt(port, mode, detector-parameters) system call. It returns the
// port object used to wire listeners and reconfigure the chain.
func (m *Manager) SetPortOpt(svc ServiceID, mode Mode, det DetectorParams) *ReplicatedPort {
	p := m.Port(svc)
	if p == nil {
		if p = &m.port0; p.mgr != nil { // used before: its FTReplica may hold it
			p = new(ReplicatedPort)
		}
		p.mgr, p.svc, p.conns = m, svc, p.conns0[:0]
		m.ports = append(m.ports, p)
	}
	p.mode = mode
	p.det = det.withDefaults()
	return p
}

// Port returns the replicated port state for svc, or nil.
func (m *Manager) Port(svc ServiceID) *ReplicatedPort {
	if i := slices.IndexFunc(m.ports, func(p *ReplicatedPort) bool { return p.svc == svc }); i >= 0 {
		return m.ports[i]
	}
	return nil
}

// ClearPort removes the replicated-port marking (service leaving).
func (m *Manager) ClearPort(svc ServiceID) {
	m.ports = slices.DeleteFunc(m.ports, func(p *ReplicatedPort) bool { return p.svc == svc })
}

// Reset discards all replicated-port state — what a host server loses when
// it crashes. Statistics survive (they belong to the experiment, not the
// machine). Chain messages still pending in this instant die with the host.
func (m *Manager) Reset() {
	for _, p := range m.ports {
		p.upstream = udp.Endpoint{}
	}
	m.ports = slices.Delete(m.ports, 0, len(m.ports))
}

// A *Manager converted to chainChannel receives its successors' datagrams.
type chainChannel Manager

func (c *chainChannel) Receive(_ udp.Endpoint, _ ipv4.Addr, payload []byte) {
	m := (*Manager)(c)
	msg := &m.rxMsg
	if err := msg.Unmarshal(payload); err != nil {
		m.stats.ChainMsgsBad++
		return
	}
	m.stats.ChainMsgsReceived++
	if b := m.bus; b.Enabled(obs.KindChainRecv) {
		b.Publish(obs.Event{
			Kind: obs.KindChainRecv, Node: m.nodeName(),
			Service: msg.Service, Conn: msg.Client,
			Seq: uint64(msg.SndNxt), Ack: uint64(msg.RcvNxt),
		})
	}
	p := m.Port(msg.Service)
	if p == nil {
		m.stats.ChainMsgsOrphan++
		return
	}
	p.onChainMsg(msg)
	if m.tcpStack.IP().Poisoned() {
		// Same rule as the parsed headers below us: nothing may keep msg.
		*msg = ChainMsg{SndNxt: 0xDBDBDBDB, RcvNxt: 0xDBDBDBDB}
	}
}

// ReplicatedPort is per-(virtual host, TCP port) replication state on one
// host server.
type ReplicatedPort struct {
	mgr  *Manager
	svc  ServiceID
	mode Mode
	det  DetectorParams

	// upstream is where this replica sends its stripped flow-control
	// information: the server "ahead of it" in the chain (its
	// predecessor). Zero for the primary, which heads the chain.
	upstream udp.Endpoint
	// gated reports whether a successor exists behind this replica. The
	// last replica in the chain (and a primary with no backups) is free to
	// deposit and send immediately.
	gated bool
	// version is the last chain configuration applied (AdvanceVersion).
	version uint32

	// conns is sorted by client endpoint Key; the first two rows live here.
	conns        []clientConn
	conns0       [2]clientConn
	lastSuspect  time.Duration
	hasSuspected bool
}

// clientConn is one row of a port's table: a client and its record.
type clientConn struct {
	client inet.Key
	fc     *ftConn
}

// ftConn is per-connection chain state, and the connection's tcp.ConnHooks:
// role, gating and limits are read when TCP asks, so a promotion, demotion or
// chain repair needs no per-connection re-wiring. It holds the connection
// itself too, so a replica's endpoint is one record of its manager's slab.
type ftConn struct {
	port    *ReplicatedPort
	client  inet.Key // the conns entry, which the SYN or a chain message made
	conn    tcp.Conn // the listener's stack initialises it when the SYN arrives
	adopted bool     // the SYN has arrived: conn is live
	gated   bool     // snapshot of the port's gating at adoption; relax-only

	// Limits reported by our successor. Valid once haveLimits is set;
	// until then a gated replica neither deposits nor sends.
	haveLimits   bool
	depositLimit tcp.Seq // successor's RcvNxt
	sendLimit    tcp.Seq // successor's SndNxt

	retransmits int // detector counts since the last progress

	// stall runs while a gate holds bytes and the successor is silent, or,
	// on the chain's tail, while its output waits on a silent predecessor.
	stall sim.Timer

	// announce sends, at the end of an instant, one chain message with the
	// largest cursors reported in it, gathered in sndNxt and rcvNxt while
	// it is armed.
	announce       sim.Timer
	sndNxt, rcvNxt tcp.Seq
}

// newFTConn takes client's record from the manager's slab and enters it in
// the port's table, in place of any record the client had.
func (p *ReplicatedPort) newFTConn(client inet.Key) *ftConn {
	fc := p.mgr.records.New()
	fc.port, fc.client = p, client
	fc.stall.InitHandler(p.mgr.sched, (*stallExpiry)(fc))
	fc.announce.InitHandler(p.mgr.sched, (*announceExpiry)(fc))
	if i, ok := p.search(client); ok {
		p.conns[i].fc = fc
	} else {
		p.conns = slices.Insert(p.conns, i, clientConn{client: client, fc: fc})
	}
	return fc
}

// search returns where client's record is, or would go, in the table.
func (p *ReplicatedPort) search(client inet.Key) (int, bool) {
	return slices.BinarySearchFunc(p.conns, client, func(c clientConn, k inet.Key) int { return cmp.Compare(c.client, k) })
}

// find returns client's record, or nil.
func (p *ReplicatedPort) find(client inet.Key) *ftConn {
	if i, ok := p.search(client); ok {
		return p.conns[i].fc
	}
	return nil
}

// eachConn calls fn on every record in client-endpoint order: each poke may
// transmit, and the frame order of a replay must follow the endpoints. fn may
// end connections or add them, so the walk goes by key: every client still
// in the table when its turn comes is visited once.
func (p *ReplicatedPort) eachConn(fn func(*ftConn)) {
	for i := 0; i < len(p.conns); {
		fc := p.conns[i].fc
		fn(fc)
		var ok bool
		if i, ok = p.search(fc.client); ok {
			i++
		}
	}
}

// A *ftConn converted to stallExpiry is the stall timer's sim.Handler.
type stallExpiry ftConn

// OnTimer is the gate-stall rule: a gate has held bytes for one RTO in which
// the successor sent nothing on this connection. That counts as one client
// retransmission would — the successor's silence is what a client behind a
// gated replica would otherwise have to time out on — and the wait repeats,
// so k RTOs of silence meet threshold k.
//
// A primary whose own data is all acknowledged up to the send cursor its
// successor reported, and which holds nothing of the client's unacknowledged,
// is waiting for a client ACK the successor's multicast copy may have lost:
// the client has nothing outstanding to resend. So it asks the client again
// (tcp.Conn.ProbeAck); the redirector multicasts the answer to every replica.
// A client with bytes outstanding resends them on its own timer, each resend
// carrying its ACK, so a probe would only add an answer whose timing against
// that timer decides whether a backup counts it.
//
// On the chain's tail the timer runs the tail-silence rule instead (OnRTO).
// It needs output outstanding: the ACK that completes a handshake advances
// sndUna without OnAckProgress.
func (s *stallExpiry) OnTimer() {
	fc := (*ftConn)(s)
	if !fc.gated {
		if fc.conn.SndNxt() != fc.conn.SndUna() && !fc.count() {
			fc.stall.Reset(fc.conn.BaseRTO())
		}
		return
	}
	fc.stall.Reset(fc.conn.RTO())
	if fc.port.mode == ModePrimary && fc.haveLimits && fc.sendLimit.LEQ(fc.conn.SndUna()) && !fc.conn.HoldsUnacked() {
		fc.conn.ProbeAck()
	}
	fc.count()
}

// A *ftConn converted to announceExpiry is the announce timer's sim.Handler.
type announceExpiry ftConn

// OnTimer sends the cursors gathered during the instant. A promotion or a
// crash in the meantime cleared the upstream and drops them.
func (a *announceExpiry) OnTimer() {
	fc := (*ftConn)(a)
	p := fc.port
	if p.upstream.Addr == 0 {
		return
	}
	if p.mgr.chainLoss > 0 && p.mgr.sched.Rand().Float64() < p.mgr.chainLoss {
		return // ablation: lost acknowledgment-channel message
	}
	msg := ChainMsg{
		Service: p.svc,
		Client:  fc.conn.Remote(),
		SndNxt:  fc.sndNxt,
		RcvNxt:  fc.rcvNxt,
	}
	p.mgr.stats.ChainMsgsSent++
	if b := p.mgr.bus; b.Enabled(obs.KindChainSend) {
		b.Publish(obs.Event{
			Kind: obs.KindChainSend, Node: p.mgr.nodeName(),
			Service: p.svc, Conn: msg.Client,
			Seq: uint64(msg.SndNxt), Ack: uint64(msg.RcvNxt),
		})
	}
	// Send errors mean no route to the predecessor — the chain is broken
	// and reconfiguration will handle it; nothing to do here.
	msg.MarshalInto(p.mgr.txBuf[:])
	_ = p.mgr.udpStack.SendTo(p.mgr.hostAddr, AckChannelPort, p.upstream, p.mgr.txBuf[:]) //nolint:errcheck
}

// Mode returns the replica's current role.
func (p *ReplicatedPort) Mode() Mode { return p.mode }

// AdvanceVersion reports whether v is newer than the last chain
// configuration version applied to the port, and records it if so. The
// replica management protocol numbers every chain change of a service: a
// retransmitted older configuration must not undo a newer one.
func (p *ReplicatedPort) AdvanceVersion(v uint32) bool {
	if int32(v-p.version) <= 0 {
		return false
	}
	p.version = v
	return true
}

// SetUpstream configures where stripped flow-control information is sent
// (the predecessor host's acknowledgment-channel endpoint). The replica
// management protocol calls this when the chain is built or repaired.
//
// A new predecessor has never heard from this replica: its gates hold the
// limits of the member that was spliced out and would stay shut until this
// replica's next segment — after a crash, a backed-off retransmission. So a
// change of predecessor announces every connection's cursors at once.
// Cursors only repeat what earlier messages said, the predecessor folds them
// with the same maximum rule, and a lost datagram leaves the old wait.
func (p *ReplicatedPort) SetUpstream(host ipv4.Addr) {
	if host == 0 {
		p.upstream = udp.Endpoint{}
		return
	}
	if host == p.upstream.Addr {
		return
	}
	p.upstream = udp.Endpoint{Addr: host, Port: AckChannelPort}
	p.eachConn(func(fc *ftConn) {
		if fc.adopted {
			fc.forwardCursors()
		}
	})
}

// SetGated declares whether a successor replica exists behind this one.
// Ungated replicas (chain tail) deposit and send freely.
//
// Gating is captured per connection when it is adopted and can only be
// relaxed afterwards: a backup that joins mid-stream has no TCP state for
// established connections, so tightening their gate would stall them
// forever (the paper leaves re-commissioning of recovered servers to
// future work). New connections pick up the new setting.
func (p *ReplicatedPort) SetGated(gated bool) {
	p.gated = gated
	if !gated {
		p.eachConn(func(fc *ftConn) {
			if fc.gated {
				fc.gated = false
				fc.stall.Stop() // the gate-stall rule ends with the gate
			}
			if fc.adopted {
				fc.conn.Poke()
			}
		})
	}
}

// Promote switches a backup to primary — the fail-over step. Suppression
// stops, retransmission backoff is cleared, and every connection
// immediately repairs the client-visible stream.
func (p *ReplicatedPort) Promote() {
	if p.mode == ModePrimary {
		return
	}
	p.mode = ModePrimary
	p.upstream = udp.Endpoint{}
	p.mgr.stats.Promotions++
	if b := p.mgr.bus; b.Enabled(obs.KindPromotion) {
		b.Publish(obs.Event{
			Kind: obs.KindPromotion, Node: p.mgr.nodeName(),
			Service: p.svc, Count: len(p.conns),
		})
	}
	p.eachConn(func(fc *ftConn) {
		fc.stopTailCount()
		if fc.adopted {
			fc.conn.ForceRetransmit()
			fc.conn.Poke()
		}
	})
}

// Demote switches a primary back to backup. This happens when management
// messages race (a backup registered before the primary is briefly sole
// member, hence primary) — the authoritative chain then demotes it, and its
// transmissions must be suppressed again.
func (p *ReplicatedPort) Demote() {
	if p.mode == ModeBackup {
		return
	}
	p.mode = ModeBackup
	if b := p.mgr.bus; b.Enabled(obs.KindDemotion) {
		b.Publish(obs.Event{
			Kind: obs.KindDemotion, Node: p.mgr.nodeName(), Service: p.svc,
		})
	}
}

// AttachListener wires a TCP listener for this service so every accepted
// connection runs under ft-TCP hooks from the SYN onward.
func (p *ReplicatedPort) AttachListener(l *tcp.Listener) { l.SetSetup((*portSetup)(p)) }

// A *ReplicatedPort converted to portSetup is its listeners' tcp.ConnSetup.
type portSetup ReplicatedPort

// SetupConn gives a SYN from client a record, or the placeholder an early
// chain message left, limits and all.
func (ps *portSetup) SetupConn(client tcp.Endpoint) (*tcp.Conn, tcp.ConnHooks) {
	p := (*ReplicatedPort)(ps)
	fc := p.find(client.Key())
	if fc == nil || fc.adopted {
		fc = p.newFTConn(client.Key())
	}
	fc.adopted, fc.gated = true, p.gated
	return &fc.conn, fc
}

// Conns returns the number of connections under management.
func (p *ReplicatedPort) Conns() int { return len(p.conns) }

// onChainMsg folds successor state into the connection's limits.
func (p *ReplicatedPort) onChainMsg(msg *ChainMsg) {
	client := msg.Client.Key()
	fc := p.find(client)
	if fc == nil {
		// The successor saw the SYN before we did (multicast races are
		// normal); remember the limits for when our SYN arrives. If it
		// never does (the SYN copy was lost, or the connection is already
		// gone), the placeholder expires instead of leaking.
		fc = p.newFTConn(client)
		p.mgr.sched.After(pendingConnTTL, func() {
			if i, ok := p.search(client); ok && p.conns[i].fc == fc && !fc.adopted {
				p.conns = slices.Delete(p.conns, i, i+1)
			}
		})
	}
	if !fc.haveLimits {
		fc.haveLimits = true
		fc.depositLimit = msg.RcvNxt
		fc.sendLimit = msg.SndNxt
	} else {
		fc.depositLimit = tcp.MaxSeq(fc.depositLimit, msg.RcvNxt)
		fc.sendLimit = tcp.MaxSeq(fc.sendLimit, msg.SndNxt)
	}
	if fc.adopted {
		// The successor spoke: a hold the new limits do not clear re-arms
		// the stall timer from now (OnGateHold, from inside Poke).
		fc.stall.Stop()
		fc.conn.Poke()
	}
}

// SuppressTransmit diverts a backup's segments into the acknowledgment
// channel; a primary's go to the wire.
func (fc *ftConn) SuppressTransmit(seg *tcp.Segment) bool {
	if fc.port.mode != ModeBackup {
		return false
	}
	fc.forwardChain(seg)
	return true
}

// DepositLimit is the successor's deposit cursor while a successor exists.
func (fc *ftConn) DepositLimit() (tcp.Seq, bool) {
	if !fc.gated {
		return 0, false
	}
	if !fc.haveLimits {
		// No word from the successor yet: hold everything. The deposit
		// cursor itself is the safe floor.
		return fc.conn.RcvNxt(), true
	}
	return fc.depositLimit, true
}

// SendLimit is the successor's send cursor while a successor exists.
func (fc *ftConn) SendLimit() (tcp.Seq, bool) {
	if !fc.gated {
		return 0, false
	}
	if !fc.haveLimits {
		return fc.conn.SndNxt(), true
	}
	return fc.sendLimit, true
}

// OnGateHold starts the stall timer when a gate begins to hold bytes.
func (fc *ftConn) OnGateHold() {
	if !fc.stall.Armed() {
		fc.stall.Reset(fc.conn.RTO())
	}
}

// OnRTO counts a replica's own retransmission timeout like a client
// retransmission — the push-direction failure signal: if the service streams
// to a silent client, a dead primary never provokes client retransmissions,
// but the backups' unacknowledged data does time out repeatedly.
//
// Those timeouts back off, and so do the client's retransmissions. So on the
// chain's tail — an ungated backup, whose predecessors relay its output — a
// timeout or a client retransmission while output is outstanding also starts
// the tail-silence rule, the mirror of the gate-stall rule: each further
// un-backed-off RTO without progress counts once, so k RTOs of a silent
// predecessor meet threshold k. While it runs, a backed-off timeout of the
// tail's own does not count: the rule already counts each RTO it spans, and
// where such a timeout falls depends on the crash instant, because the
// tail's timer restarts at every segment it sends. A deposit, an ACK that
// advances sndUna or a promotion stops the count, and so does the suspicion
// it raises: a tail that only lost the client's last ACK raises at most one
// per timeout of its own.
func (fc *ftConn) OnRTO() {
	if fc.tailCounting() && fc.conn.RTO() != fc.conn.BaseRTO() {
		return
	}
	fc.OnPeerRetransmit()
}

// startTailCount starts the tail-silence rule (OnRTO) on the chain's tail
// with output outstanding, unless it runs already.
func (fc *ftConn) startTailCount() {
	if fc.gated || fc.port.mode != ModeBackup || fc.stall.Armed() || fc.conn.SndNxt() == fc.conn.SndUna() {
		return
	}
	fc.stall.Reset(fc.conn.BaseRTO())
}

// tailCounting reports whether the tail-silence rule runs: on an ungated
// connection the stall timer is its.
func (fc *ftConn) tailCounting() bool { return !fc.gated && fc.stall.Armed() }

// stopTailCount ends the tail-silence rule (OnRTO): the predecessor answered,
// or this replica no longer has one. A gated connection's timer is the
// gate-stall rule's and is left alone.
func (fc *ftConn) stopTailCount() {
	if !fc.gated {
		fc.stall.Stop()
	}
}

// OnAckProgress resets the failure estimator: the outbound loop is healthy.
func (fc *ftConn) OnAckProgress() {
	fc.retransmits = 0
	fc.stopTailCount()
}

// OnClosed ends management of the connection, unless a newer record has
// taken its client's entry. Cursors reported in this instant still leave at
// its end: the last may carry the FIN's deposit.
func (fc *ftConn) OnClosed(error) {
	fc.stall.Stop()
	p := fc.port
	if i, ok := p.search(fc.client); ok && p.conns[i].fc == fc {
		p.conns = slices.Delete(p.conns, i, i+1)
	}
}

// forwardChain strips a suppressed segment to its flow-control fields and
// sends them up the acknowledgment channel.
func (fc *ftConn) forwardChain(seg *tcp.Segment) {
	// The segment's SEQ plus its occupancy is this replica's send cursor
	// after the packet; its ACK field is the deposit cursor.
	fc.sendChainMsg(seg.Seq.Add(seg.Len()), seg.Ack)
}

// forwardCursors sends the connection's current flow-control cursors up the
// chain. The paper: "Once Si has deposited the data in the socket buffer,
// it forwards the flow control information along the acknowledgement
// channel" — deposits propagate in the same instant rather than waiting for
// the next (possibly delayed-ACK-batched) would-be packet.
func (fc *ftConn) forwardCursors() {
	fc.sendChainMsg(fc.conn.SndNxt(), fc.conn.RcvNxt())
}

// sendChainMsg reports cursors up the chain. Every report of one instant —
// deposits, suppressed segments, a new predecessor's announcement — leaves as
// one message when the instant ends (announceExpiry), carrying the largest
// cursors: the predecessor folds them with the same maximum rule, so the
// message says everything the separate ones would have, no later. A report
// at a later instant is a message of its own even if it repeats the last one:
// that repeat is how the channel repairs a lost message.
func (fc *ftConn) sendChainMsg(sndNxt, rcvNxt tcp.Seq) {
	if fc.port.upstream.Addr == 0 {
		return
	}
	if fc.announce.Armed() {
		fc.sndNxt = tcp.MaxSeq(fc.sndNxt, sndNxt)
		fc.rcvNxt = tcp.MaxSeq(fc.rcvNxt, rcvNxt)
		return
	}
	fc.sndNxt, fc.rcvNxt = sndNxt, rcvNxt
	fc.announce.Reset(0)
}

// OnPeerRetransmit is the failure-estimator input (paper Section 4.3):
// repeated client retransmissions mean the flow-control loop is broken
// somewhere in the replica set. On the chain's tail it also starts the
// tail-silence rule (OnRTO): the client's first retransmission comes one
// client RTO after a primary's crash wherever the crash fell, the tail's
// own first timeout up to an RTO later.
func (fc *ftConn) OnPeerRetransmit() {
	if !fc.count() {
		fc.startTailCount()
	}
}

// count adds one to the failure estimator and reports whether that raised a
// suspicion.
func (fc *ftConn) count() bool {
	p := fc.port
	fc.retransmits++
	if fc.retransmits < p.det.RetransmitThreshold {
		return false
	}
	now := p.mgr.sched.Now()
	if p.hasSuspected && now-p.lastSuspect < suspectCooldown {
		return false
	}
	p.hasSuspected = true
	p.lastSuspect = now
	fc.retransmits = 0
	fc.stopTailCount()
	p.mgr.stats.Suspicions++
	if b := p.mgr.bus; b.Enabled(obs.KindSuspicion) {
		b.Publish(obs.Event{
			Kind: obs.KindSuspicion, Node: p.mgr.nodeName(),
			Service: p.svc, Count: p.det.RetransmitThreshold,
		})
	}
	if p.mgr.suspect != nil {
		p.mgr.suspect.Suspect(p.svc)
	}
	return true
}

// OnDeposit resets the failure estimator (data is flowing) and immediately
// forwards the new cursors up the chain.
func (fc *ftConn) OnDeposit() {
	fc.retransmits = 0
	fc.stopTailCount()
	fc.forwardCursors()
}
