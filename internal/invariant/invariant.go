// Package invariant is the online runtime-verification monitor of the
// HydraNet-FT reproduction: a bus subscriber that continuously checks the
// paper's safety properties — the protocol obligations behind "network
// support for dependable services" — instead of merely counting events.
//
// The monitor consumes the same typed obs event stream every other
// observer does, so verdicts and violation ordering are byte-identical for
// every run of one seed. Like every observer in this tree it is free when
// detached — emit sites stay behind Bus.Enabled — and its per-event hot
// path is allocation-free in steady state (first contact with a connection
// or node allocates its tracking slot, every later event lands in existing
// storage; TestMonitorZeroCostWhenDetached pins it).
//
// Checked rules (see DESIGN.md §10 for the paper clause each encodes):
//
//   - deposit-cursor: per (node, service, conn) the deposit cursor advances
//     by exactly the bytes deposited — no byte reaches the application
//     twice, none is skipped (exactly-once, in-order delivery).
//   - ack-monotonic: per (node, service, conn) the cumulative ACK point
//     never regresses.
//   - ft-gate: a client-facing ACK for a replicated service never exceeds
//     the minimum deposit cursor over the live replica set, outside a
//     reconfiguration window (the ft-TCP gating invariant, paper §4.2).
//   - chain-monotonic: the deposit cursor (RcvNxt) a replica announces on
//     the acknowledgment channel is non-decreasing within a membership
//     epoch (not the order it arrives in: the channel is UDP).
//   - membership: exactly one live primary per replica set between
//     reconfigurations, the registration race aside (notePromotion).
//   - client-delivery: a client application never consumes more bytes than
//     its own stack deposited (exactly-once at the delivery surface).
//   - frame-conservation: at quiesce no pooled frame remains outstanding —
//     every frame sent was delivered, dropped with a recorded reason, or
//     released.
//
// On violation the monitor records a forensic Violation (rule, virtual
// instant, offending node/connection, the triggering event, expected and
// observed cursors). The packet context around it is a same-seed replay
// of the run under -pcap: the replay's frames are the original run's, to
// the byte and the nanosecond.
package invariant

import (
	"hydranet/internal/inet"
	"hydranet/internal/obs"
)

// Rule names, in report order.
const (
	RuleDeposit      = "deposit-cursor"
	RuleAck          = "ack-monotonic"
	RuleGate         = "ft-gate"
	RuleChain        = "chain-monotonic"
	RuleMembership   = "membership"
	RuleDelivery     = "client-delivery"
	RuleConservation = "frame-conservation"
)

// Rule indices into the per-rule counter arrays.
const (
	ruleDeposit = iota
	ruleAck
	ruleGate
	ruleChain
	ruleMembership
	ruleDelivery
	ruleConservation
	numRules
)

// ruleNames maps rule index to name, in report order.
var ruleNames = [numRules]string{
	RuleDeposit, RuleAck, RuleGate, RuleChain,
	RuleMembership, RuleDelivery, RuleConservation,
}

// DefaultMaxViolations bounds how many violations are recorded with full
// forensic detail; later ones are still counted per rule. A sick run can
// violate on every segment, and an unbounded record would turn the monitor
// into the memory leak it audits for.
const DefaultMaxViolations = 256

// Config parameterizes a Monitor.
type Config struct {
	// Scenario labels the audit report (free-form; keep it free of
	// wall-clock facts so reports of equal-seed runs diff byte-identical).
	Scenario string
	// Outstanding, if set, reports the frame pool's outstanding count for
	// the quiesce conservation check (normally the fabric's frame.Pool
	// via the facade).
	Outstanding func() int
}

// connKey identifies one directed connection endpoint at one node.
type connKey struct {
	node string
	a    inet.Endpoint // local endpoint as emitted (Event.Service)
	b    inet.Endpoint // remote endpoint as emitted (Event.Conn)
}

// flowKey identifies one client flow of one service, node-independent: the
// join key between a replica's deposit events (Service=service endpoint,
// Conn=client endpoint) and the client's ACK events (Service=client
// endpoint, Conn=service endpoint).
type flowKey struct {
	svc    inet.Endpoint
	client inet.Endpoint
}

// replicaCursor is one node's deposit cursor on one flow.
type replicaCursor struct {
	cursor uint32
	seen   bool
	// live distinguishes a cursor that tracks a running stack from the
	// stale cursor of a crashed or restarted node: stale cursors leave the
	// gating minimum and the continuity baseline until the node deposits
	// again.
	live bool
}

// flowState tracks every replica's deposit cursor on one client flow.
type flowState struct {
	deps map[string]*replicaCursor
}

// ackState is one connection's cumulative-ACK baseline.
type ackState struct {
	ack  uint32
	seen bool
	live bool
}

// chainState is the deposit cursor one node last announced on the
// acknowledgment channel for one (service, client) flow. Only the RcvNxt
// (deposit cursor) is tracked: chain messages echo the send cursor of the
// specific segment that triggered them, so a retransmission legitimately
// carries a lower SndNxt — but the deposit cursor, the quantity that gates
// client-facing ACKs, must never regress within a membership epoch.
type chainState struct {
	ack  uint32
	seen bool
}

// svcState is one replicated service's membership view, reconstructed from
// registration, reconfiguration, promotion, demotion and recommission
// events.
type svcState struct {
	members map[string]bool // node name -> chain member
	primary string          // node name of the current primary ("" if none)
	// window is true while a reconfiguration is in progress (a member
	// crashed, or the primary was removed and its successor has not
	// promoted yet); the gate and membership rules are suspended inside
	// it, exactly as the paper's guarantees are.
	window bool
	// early is the backup that registered first, before any primary: the
	// redirector made it the chain's sole member, hence its primary.
	early string
}

// nodeState is one node's liveness and conservation totals.
type nodeState struct {
	crashed   bool
	deposited uint64 // bytes the stack handed to applications on this node
	delivered uint64 // bytes client harnesses reported consuming
}

// Monitor is the online invariant checker. Create with New, wire with
// Attach, read verdicts with Finish. Not safe for concurrent use: like
// every bus subscriber it runs synchronously on the (virtual-time ordered)
// event stream.
type Monitor struct {
	scenario    string
	outstanding func() int

	addrName map[inet.Addr]string // host address -> node name, for management events

	flows  map[flowKey]*flowState
	acks   map[connKey]*ackState
	chains map[connKey]*chainState
	svcs   map[inet.Key]*svcState
	nodes  map[string]*nodeState

	events     uint64
	frames     uint64
	frameBytes uint64
	kindCounts []uint64

	checks     [numRules]uint64
	failures   [numRules]uint64
	violations []Violation

	quiesceChecked bool
	outstandingEnd int
}

// New creates a monitor. Attach it to a bus before the traffic (and the
// service registrations) it should audit.
func New(cfg Config) *Monitor {
	return &Monitor{
		scenario:    cfg.Scenario,
		outstanding: cfg.Outstanding,
		addrName:    make(map[inet.Addr]string),
		flows:       make(map[flowKey]*flowState),
		acks:        make(map[connKey]*ackState),
		chains:      make(map[connKey]*chainState),
		svcs:        make(map[inet.Key]*svcState),
		nodes:       make(map[string]*nodeState),
		kindCounts:  make([]uint64, len(obs.Kinds())),
	}
}

// MapAddr teaches the monitor a host address → node name binding: the
// redirector daemon knows chain members by address, the stacks emit under
// node names. The facade registers every host at attach time.
func (m *Monitor) MapAddr(addr inet.Addr, name string) { m.addrName[addr] = name }

// Attach subscribes the monitor to every kind on the bus.
func (m *Monitor) Attach(b *obs.Bus) { b.Subscribe(m.observe) }

// NoteFrame counts one fabric frame for the audit census. The facade
// routes a frame tap here.
func (m *Monitor) NoteFrame(size int) {
	m.frames++
	m.frameBytes += uint64(size)
}

// seqLT reports a < b in mod-2^32 serial-number arithmetic (RFC 1982 as
// TCP applies it).
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// node returns n's state, allocating it on first contact.
func (m *Monitor) node(name string) *nodeState {
	ns := m.nodes[name]
	if ns == nil {
		ns = &nodeState{}
		m.nodes[name] = ns
	}
	return ns
}

// alive reports whether the node is not known to be crashed (nodes the
// monitor never heard about are presumed alive).
func (m *Monitor) alive(name string) bool {
	ns := m.nodes[name]
	return ns == nil || !ns.crashed
}

// observe counts the event and runs its kind's rules. The cursor kinds —
// deposit, ACK advance, chain message, client delivery — are the per-segment
// path and must stay allocation-free in steady state: only first contact
// with a connection or node may allocate its slot, and violation details are
// constants. The management kinds are rare and may allocate.
func (m *Monitor) observe(e obs.Event) {
	m.events++
	if int(e.Kind) < len(m.kindCounts) {
		m.kindCounts[e.Kind]++
	}
	switch e.Kind {
	case obs.KindDeposit:
		m.noteDeposit(e)
	case obs.KindAckProgress:
		m.noteAck(e)
	case obs.KindChainSend:
		m.noteChain(e)
	case obs.KindClientDeliver:
		m.noteDeliver(e)
	case obs.KindNodeCrash:
		m.noteCrash(e)
	case obs.KindNodeRestart:
		m.node(e.Node).crashed = false
	case obs.KindRegistration:
		m.noteRegistration(e)
	case obs.KindReconfig:
		m.noteReconfig(e)
	case obs.KindPromotion:
		m.notePromotion(e)
	case obs.KindDemotion:
		m.noteDemotion(e)
	case obs.KindRecommission:
		m.noteRecommission(e)
	}
}

// noteDeposit checks deposit-cursor continuity: the post-deposit cursor
// must equal the previous cursor plus the bytes deposited. A short advance
// means bytes reached the application twice; a long one means bytes were
// skipped. Either way exactly-once delivery is broken.
func (m *Monitor) noteDeposit(e obs.Event) {
	fk := flowKey{svc: e.Service, client: e.Conn}
	f := m.flows[fk]
	if f == nil {
		f = &flowState{deps: make(map[string]*replicaCursor)}
		m.flows[fk] = f
	}
	rc := f.deps[e.Node]
	if rc == nil {
		rc = &replicaCursor{}
		f.deps[e.Node] = rc
	}
	m.checks[ruleDeposit]++
	seq := uint32(e.Seq)
	if rc.seen && rc.live {
		want := rc.cursor + uint32(e.Size)
		if seq != want {
			if seqLT(seq, want) {
				m.record(ruleDeposit, e, "deposit cursor advanced less than the bytes deposited: duplicate delivery to the application", uint64(want), uint64(seq))
			} else {
				m.record(ruleDeposit, e, "deposit cursor advanced more than the bytes deposited: bytes skipped past the application", uint64(want), uint64(seq))
			}
		}
	}
	rc.cursor = seq
	rc.seen = true
	rc.live = true
	m.node(e.Node).deposited += uint64(e.Size)
}

// noteAck checks cumulative-ACK monotonicity and, for the client side of a
// replicated service, the ft-TCP gating invariant: the ACK the client
// observed must not exceed the minimum deposit cursor over the live
// replica set (+1 for the FIN, which consumes a sequence number but is
// never deposited).
func (m *Monitor) noteAck(e obs.Event) {
	ck := connKey{node: e.Node, a: e.Service, b: e.Conn}
	st := m.acks[ck]
	if st == nil {
		st = &ackState{}
		m.acks[ck] = st
	}
	m.checks[ruleAck]++
	seq := uint32(e.Seq)
	if st.seen && st.live && seqLT(seq, st.ack) {
		m.record(ruleAck, e, "cumulative ACK point regressed", uint64(st.ack), uint64(seq))
	}
	st.ack = seq
	st.seen = true
	st.live = true

	// Gate check: e.Conn is the remote endpoint; when it names a replicated
	// service and the emitting node is not a chain member, this is the
	// client observing the primary's ACK.
	s := m.svcs[e.Conn.Key()]
	if s == nil || s.members[e.Node] || s.window {
		return
	}
	f := m.flows[flowKey{svc: e.Conn, client: e.Service}]
	if f == nil {
		return
	}
	var minCur uint32
	var minNode string
	complete := true
	found := false
	for node := range s.members { //hydralint:nondeterministic min over live members is order-independent; ties broken by name below
		if !m.alive(node) {
			continue
		}
		rc := f.deps[node]
		if rc == nil || !rc.seen || !rc.live {
			// A live member has not deposited on this flow (connection
			// setup, or a recommissioned host that never saw it): the
			// bound is not evaluable yet.
			complete = false
			break
		}
		if !found || seqLT(rc.cursor, minCur) || (rc.cursor == minCur && node < minNode) {
			minCur = rc.cursor
			minNode = node
			found = true
		}
	}
	if !complete || !found {
		return
	}
	m.checks[ruleGate]++
	limit := minCur + 1 // the FIN consumes one un-deposited sequence number
	if seqLT(limit, seq) {
		v := m.record(ruleGate, e, "client-facing ACK beyond the minimum replica deposit cursor", uint64(limit), uint64(seq))
		if v != nil {
			v.Node = minNode // the replica holding the violated bound
		}
	}
}

// noteChain checks acknowledgment-channel deposit-cursor sanity: within
// one membership epoch the RcvNxt a replica announces never regresses.
// (SndNxt is not checked — chain messages echo the send cursor of the
// triggering segment, so retransmissions legitimately carry lower values.
// Nor is the order messages arrive in: the channel is UDP.) Baselines reset
// at reconfigurations (the upstream neighbor changes) and at crashes
// (volatile state is legitimately lost).
func (m *Monitor) noteChain(e obs.Event) {
	ck := connKey{node: e.Node, a: e.Service, b: e.Conn}
	st := m.chains[ck]
	if st == nil {
		st = &chainState{}
		m.chains[ck] = st
	}
	m.checks[ruleChain]++
	ack := uint32(e.Ack)
	if st.seen && seqLT(ack, st.ack) {
		m.record(ruleChain, e, "chain-send deposit cursor (RcvNxt) regressed", uint64(st.ack), uint64(ack))
	}
	st.ack, st.seen = ack, true
}

// noteDeliver checks delivery conservation: a client harness can never
// have consumed more bytes than its own stack deposited.
func (m *Monitor) noteDeliver(e obs.Event) {
	ns := m.node(e.Node)
	m.checks[ruleDelivery]++
	ns.delivered += uint64(e.Size)
	if ns.delivered > ns.deposited {
		m.record(ruleDelivery, e, "client consumed more bytes than its stack deposited", ns.deposited, ns.delivered)
	}
}

// record counts a violation and, within the forensic bound, stores it. It
// returns the stored record for caller annotation (nil when beyond the
// bound). detail must be a constant: the hot path renders nothing.
func (m *Monitor) record(rule int, e obs.Event, detail string, want, got uint64) *Violation {
	m.failures[rule]++
	if len(m.violations) >= DefaultMaxViolations {
		return nil
	}
	m.violations = append(m.violations, Violation{
		Rule:    ruleNames[rule],
		Time:    e.Time,
		Node:    e.Node,
		Service: obs.EndpointText(e.Service),
		Conn:    obs.EndpointText(e.Conn),
		Detail:  detail,
		Want:    want,
		Got:     got,
		Event:   e,
	})
	return &m.violations[len(m.violations)-1]
}

// svc returns the service's membership state, allocating on first sight.
func (m *Monitor) svc(key inet.Endpoint) *svcState {
	s := m.svcs[key.Key()]
	if s == nil {
		s = &svcState{members: make(map[string]bool)}
		m.svcs[key.Key()] = s
	}
	return s
}

// resolveAddr maps a host address to its node name (falling back to the
// dotted quad when the facade never registered it).
func (m *Monitor) resolveAddr(addr inet.Addr) string {
	if name, ok := m.addrName[addr]; ok {
		return name
	}
	return addr.String()
}

// noteCrash marks the node dead, invalidates its volatile cursors (the
// state is legitimately lost with the machine), and opens a
// reconfiguration window on every service it was a member of.
func (m *Monitor) noteCrash(e obs.Event) {
	m.node(e.Node).crashed = true
	for _, f := range m.flows { //hydralint:nondeterministic per-flow invalidation of one node commutes across flows
		if rc := f.deps[e.Node]; rc != nil {
			rc.live = false
		}
	}
	for k, st := range m.acks { //hydralint:nondeterministic per-conn invalidation of one node commutes across conns
		if k.node == e.Node {
			st.live = false
		}
	}
	for k, st := range m.chains { //hydralint:nondeterministic per-conn baseline reset of one node commutes across conns
		if k.node == e.Node {
			st.seen = false
		}
	}
	for _, s := range m.svcs { //hydralint:nondeterministic window flag update commutes across services
		if s.members[e.Node] {
			s.window = true
		}
	}
}

// noteRegistration folds the joining host into the membership view. A
// primary registration while another live primary holds the role outside
// a reconfiguration window is a membership violation.
func (m *Monitor) noteRegistration(e obs.Event) {
	name := m.resolveAddr(e.Host)
	s := m.svc(e.Service)
	if !e.Primary && s.primary == "" && len(s.members) == 0 {
		s.early = name
	}
	s.members[name] = true
	m.checks[ruleMembership]++
	if e.Primary {
		if s.primary != "" && s.primary != name && m.alive(s.primary) && !s.window {
			m.record(ruleMembership, e, "primary registration while another primary is live", 0, 0)
		}
		s.primary = name
	}
}

// noteReconfig removes the re-chained-away hosts from the membership view.
// Removing the primary keeps the reconfiguration window open until its
// successor promotes, removing only backups closes it. Chain cursor
// baselines for the service reset: the upstream neighbors changed.
func (m *Monitor) noteReconfig(e obs.Event) {
	s := m.svc(e.Service)
	m.checks[ruleMembership]++
	for _, addr := range e.Hosts {
		name := m.resolveAddr(addr)
		delete(s.members, name)
		if s.primary == name {
			s.primary = ""
		}
	}
	s.window = s.primary == ""
	for k, st := range m.chains { //hydralint:nondeterministic per-conn baseline reset commutes across conns
		if k.a == e.Service {
			st.seen = false
		}
	}
}

// notePromotion closes the service's reconfiguration window with the new
// primary. A promotion while another live primary holds the role outside a
// window means two primaries ACK the same client — the split-brain the
// chain protocol exists to prevent. The early backup's promotion with no
// connection is the registration race: the role stays where the
// registrations put it, and the newer chain configuration demotes it.
func (m *Monitor) notePromotion(e obs.Event) {
	s := m.svc(e.Service)
	m.checks[ruleMembership]++
	if !s.window && e.Node == s.early && e.Count == 0 {
		return
	}
	if !s.window && s.primary != "" && s.primary != e.Node && m.alive(s.primary) {
		m.record(ruleMembership, e, "promotion while another primary is live", 0, 0)
	}
	s.primary = e.Node
	s.members[e.Node] = true
	s.window = false
}

// noteDemotion clears the primary role (the management-race repair path).
func (m *Monitor) noteDemotion(e obs.Event) {
	s := m.svc(e.Service)
	m.checks[ruleMembership]++
	if s.primary == e.Node {
		s.primary = ""
	}
}

// noteRecommission returns a recovered host to the membership view (as a
// backup; only new connections replicate onto it).
func (m *Monitor) noteRecommission(e obs.Event) {
	s := m.svc(e.Service)
	m.checks[ruleMembership]++
	s.members[e.Node] = true
}

// Finish runs the end-of-run conservation check and builds the audit
// report. idle reports whether the simulation reached quiescence (no
// pending events): the frame-conservation rule is only decidable then —
// frames legitimately in flight are not leaks.
func (m *Monitor) Finish(idle bool) Report {
	if m.outstanding != nil && idle && !m.quiesceChecked {
		m.quiesceChecked = true
		m.outstandingEnd = m.outstanding()
		m.checks[ruleConservation]++
		if m.outstandingEnd > 0 {
			m.record(ruleConservation, obs.Event{}, "pooled frames outstanding at quiesce: frame leak", 0, uint64(m.outstandingEnd))
		}
	}
	return m.report()
}

// Violations returns the recorded violations, in observation order.
func (m *Monitor) Violations() []Violation { return m.violations }

// Clean reports whether no rule has failed so far.
func (m *Monitor) Clean() bool {
	for _, f := range m.failures {
		if f > 0 {
			return false
		}
	}
	return true
}

// Members returns how many chain members the monitor counts for svc: what
// the registrations, reconfigurations and recommissions it understood add
// up to.
func (m *Monitor) Members(svc inet.Endpoint) int {
	s := m.svcs[svc.Key()]
	if s == nil {
		return 0
	}
	return len(s.members)
}

// Checks returns the total number of rule evaluations performed.
func (m *Monitor) Checks() uint64 {
	var total uint64
	for _, c := range m.checks {
		total += c
	}
	return total
}

// KindRole describes how the monitor uses a kind, and reports false for a
// kind it does not know — the completeness test fails on any new Kind
// until it is mapped here, so new event types cannot silently escape the
// oracle.
func KindRole(k obs.Kind) (string, bool) {
	switch k {
	case obs.KindPacketLoss, obs.KindQueueDrop, obs.KindMTUDrop:
		return "frame-conservation: counted drop reason", true
	case obs.KindNodeCrash:
		return "liveness: invalidates volatile cursors, opens reconfiguration windows", true
	case obs.KindNodeRestart:
		return "liveness: node returns (cursors stay invalid until it deposits again)", true
	case obs.KindRetransmit, obs.KindRTO, obs.KindFastRetransmit:
		return "census only: recovery activity, no safety obligation", true
	case obs.KindDeposit:
		return "deposit-cursor continuity; ft-gate minimum; client-delivery bound", true
	case obs.KindAckProgress:
		return "ack-monotonic; ft-gate client-side check", true
	case obs.KindMulticast, obs.KindRedirect:
		return "census only: fan-out and tunnel activity", true
	case obs.KindTunnelError:
		return "census only: counted delivery failure (frames accounted by drop kinds)", true
	case obs.KindChainSend:
		return "chain-monotonic deposit-cursor sanity", true
	case obs.KindChainRecv:
		return "census only: the UDP channel may reorder; the receiver keeps the highest cursor", true
	case obs.KindSuspicion:
		return "census only: detector activity precedes reconfiguration", true
	case obs.KindPromotion:
		return "membership: closes reconfiguration window, single-primary check", true
	case obs.KindDemotion:
		return "membership: clears the primary role", true
	case obs.KindRegistration:
		return "membership: adds member, single-primary check", true
	case obs.KindReconfig:
		return "membership: removes members, resets chain baselines", true
	case obs.KindRecommission:
		return "membership: re-adds a recovered backup", true
	case obs.KindClientDeliver:
		return "client-delivery conservation", true
	}
	return "", false
}
