package invariant

import (
	"strings"
	"testing"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/obs"
)

// harness is a monitor attached to a synthetic bus with a controllable
// clock, for driving hand-built event sequences through the rules.
type harness struct {
	m   *Monitor
	bus *obs.Bus
	now time.Duration
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{}
	h.bus = obs.NewBus(func() time.Duration { return h.now })
	h.m = New(cfg)
	h.m.Attach(h.bus)
	return h
}

// The one service, client and pair of replica hosts the hand-built
// sequences talk about.
var (
	testSvc    = inet.Endpoint{Addr: inet.AddrFrom4(10, 9, 0, 9), Port: 5001}
	testClient = inet.Endpoint{Addr: inet.AddrFrom4(10, 1, 0, 1), Port: 40000}
	hostS0     = inet.AddrFrom4(10, 3, 0, 2)
	hostS1     = inet.AddrFrom4(10, 3, 0, 3)
)

func (h *harness) pub(e obs.Event) {
	h.now += time.Millisecond
	h.bus.Publish(e)
}

// deposit publishes a replica-side deposit: seq is the POST-deposit
// cursor, as the tcp stack emits it.
func (h *harness) deposit(node string, seq uint32, size int) {
	h.pub(obs.Event{Kind: obs.KindDeposit, Node: node,
		Service: testSvc, Conn: testClient,
		Seq: uint64(seq), Size: size})
}

// clientAck publishes the client-side cumulative-ACK advance for the same
// flow (endpoints mirrored).
func (h *harness) clientAck(seq uint32) {
	h.pub(obs.Event{Kind: obs.KindAckProgress, Node: "client",
		Service: testClient, Conn: testSvc, Seq: uint64(seq)})
}

func (h *harness) register(host inet.Addr, primary bool) {
	h.pub(obs.Event{Kind: obs.KindRegistration, Node: "rd",
		Service: testSvc, Host: host, Primary: primary})
}

func violationsOf(m *Monitor, rule string) []Violation {
	var out []Violation
	for _, v := range m.Violations() {
		if v.Rule == rule {
			out = append(out, v)
		}
	}
	return out
}

func TestDepositCursorContinuity(t *testing.T) {
	h := newHarness(t, Config{})
	h.deposit("s0", 1000, 0) // baseline (post-SYN cursor)
	h.deposit("s0", 1500, 500)
	h.deposit("s0", 2500, 1000)
	if !h.m.Clean() {
		t.Fatalf("clean advance flagged: %v", h.m.Violations())
	}

	// Duplicate delivery: cursor advances less than the bytes deposited.
	h.deposit("s0", 2600, 600)
	vs := violationsOf(h.m, RuleDeposit)
	if len(vs) != 1 {
		t.Fatalf("want 1 deposit violation, got %d: %v", len(vs), h.m.Violations())
	}
	if vs[0].Want != 3100 || vs[0].Got != 2600 {
		t.Fatalf("want cursor 3100 got %d, observed %d", vs[0].Want, vs[0].Got)
	}
	if !strings.Contains(vs[0].Detail, "duplicate") {
		t.Fatalf("short advance should read as duplicate delivery: %q", vs[0].Detail)
	}

	// Skipped bytes: cursor advances more than the bytes deposited.
	h.deposit("s0", 4000, 100)
	vs = violationsOf(h.m, RuleDeposit)
	if len(vs) != 2 || !strings.Contains(vs[1].Detail, "skipped") {
		t.Fatalf("long advance should read as skipped bytes: %v", vs)
	}
}

func TestDepositCursorResetsAcrossCrash(t *testing.T) {
	h := newHarness(t, Config{})
	h.deposit("s0", 5000, 0)
	h.pub(obs.Event{Kind: obs.KindNodeCrash, Node: "s0"})
	h.pub(obs.Event{Kind: obs.KindNodeRestart, Node: "s0"})
	// A fresh connection starts a fresh cursor; the stale baseline must
	// not condemn it.
	h.deposit("s0", 1000, 0)
	if !h.m.Clean() {
		t.Fatalf("post-restart cursor flagged against stale baseline: %v", h.m.Violations())
	}
}

func TestAckMonotonic(t *testing.T) {
	h := newHarness(t, Config{})
	h.clientAck(1000)
	h.clientAck(1000) // equal is legal (duplicate ACKs exist)
	h.clientAck(2000)
	if !h.m.Clean() {
		t.Fatalf("monotone ACKs flagged: %v", h.m.Violations())
	}
	h.clientAck(1500)
	vs := violationsOf(h.m, RuleAck)
	if len(vs) != 1 || vs[0].Want != 2000 || vs[0].Got != 1500 {
		t.Fatalf("ACK regression not reported correctly: %v", h.m.Violations())
	}
}

func TestFTGate(t *testing.T) {
	h := newHarness(t, Config{})
	h.m.MapAddr(hostS0, "s0")
	h.m.MapAddr(hostS1, "s1")
	h.register(hostS0, true)
	h.register(hostS1, false)

	h.deposit("s0", 3000, 0)
	h.deposit("s1", 2000, 0)
	// ACK at min(3000,2000)+1 = 2001 is the highest legal value.
	h.clientAck(2001)
	if !h.m.Clean() {
		t.Fatalf("gated ACK flagged: %v", h.m.Violations())
	}
	// One past the FIN slack is a gate violation, pinned on the replica
	// holding the minimum.
	h.clientAck(2002)
	vs := violationsOf(h.m, RuleGate)
	if len(vs) != 1 {
		t.Fatalf("premature ACK not reported: %v", h.m.Violations())
	}
	if vs[0].Want != 2001 || vs[0].Got != 2002 || vs[0].Node != "s1" {
		t.Fatalf("gate forensics wrong: want=2001 got=2002 node=s1, have %+v", vs[0])
	}
}

func TestFTGateSuspendedInReconfigWindow(t *testing.T) {
	h := newHarness(t, Config{})
	h.m.MapAddr(hostS0, "s0")
	h.m.MapAddr(hostS1, "s1")
	h.register(hostS0, true)
	h.register(hostS1, false)
	h.deposit("s0", 3000, 0)
	h.deposit("s1", 2000, 0)
	// Crash opens the window: the ACK beyond s1's stale cursor must not
	// flag while membership is in flux.
	h.pub(obs.Event{Kind: obs.KindNodeCrash, Node: "s1"})
	h.clientAck(2500)
	if !h.m.Clean() {
		t.Fatalf("gate fired inside reconfiguration window: %v", h.m.Violations())
	}
	// Reconfig removes s1, promotion closes the window; the bound is now
	// min over {s0} = 3000.
	h.pub(obs.Event{Kind: obs.KindReconfig, Node: "rd",
		Service: testSvc, Cause: "failed", Hosts: []inet.Addr{hostS1}})
	h.pub(obs.Event{Kind: obs.KindPromotion, Node: "s0", Service: testSvc})
	h.clientAck(3001)
	if !h.m.Clean() {
		t.Fatalf("post-reconfig gated ACK flagged: %v", h.m.Violations())
	}
	h.clientAck(3002)
	if len(violationsOf(h.m, RuleGate)) != 1 {
		t.Fatalf("post-reconfig premature ACK not reported: %v", h.m.Violations())
	}
}

func TestChainMonotonic(t *testing.T) {
	h := newHarness(t, Config{})
	send := func(seq, ack uint32) {
		h.pub(obs.Event{Kind: obs.KindChainSend, Node: "s0",
			Service: testSvc, Conn: testClient,
			Seq: uint64(seq), Ack: uint64(ack)})
	}
	send(100, 50)
	send(200, 50)
	send(200, 80)
	// A retransmitted segment echoes a lower SndNxt — legitimate, not a
	// violation; only the deposit cursor is monotone.
	send(150, 80)
	if !h.m.Clean() {
		t.Fatalf("monotone chain deposit cursors flagged: %v", h.m.Violations())
	}
	send(150, 60)
	vs := violationsOf(h.m, RuleChain)
	if len(vs) != 1 || !strings.Contains(vs[0].Detail, "RcvNxt") || vs[0].Want != 80 || vs[0].Got != 60 {
		t.Fatalf("chain deposit-cursor regression not reported: %v", h.m.Violations())
	}
}

func TestChainBaselineResetsOnReconfig(t *testing.T) {
	h := newHarness(t, Config{})
	h.pub(obs.Event{Kind: obs.KindChainSend, Node: "s1",
		Service: testSvc, Conn: testClient, Seq: 500, Ack: 500})
	h.pub(obs.Event{Kind: obs.KindReconfig, Node: "rd",
		Service: testSvc, Cause: "failed", Hosts: []inet.Addr{hostS0}})
	// After re-chaining the upstream neighbor changed; a lower cursor from
	// the new epoch is legitimate.
	h.pub(obs.Event{Kind: obs.KindChainSend, Node: "s1",
		Service: testSvc, Conn: testClient, Seq: 300, Ack: 300})
	if !h.m.Clean() {
		t.Fatalf("new-epoch chain cursor flagged against stale baseline: %v", h.m.Violations())
	}
}

// TestChainRecvMayArriveOutOfOrder: the acknowledgment channel is UDP, so a
// predecessor can receive a successor's announcements out of order (the
// receiver keeps the highest). Only what a replica announces is judged.
func TestChainRecvMayArriveOutOfOrder(t *testing.T) {
	h := newHarness(t, Config{})
	for _, ack := range []uint64{1000, 2460, 3920} {
		h.pub(obs.Event{Kind: obs.KindChainSend, Node: "s1", Service: testSvc, Conn: testClient, Ack: ack})
	}
	for _, ack := range []uint64{1000, 3920, 2460} {
		h.pub(obs.Event{Kind: obs.KindChainRecv, Node: "s0", Service: testSvc, Conn: testClient, Ack: ack})
	}
	if !h.m.Clean() {
		t.Fatalf("reordered chain datagrams flagged: %v", h.m.Violations())
	}
}

func TestMembershipSinglePrimary(t *testing.T) {
	h := newHarness(t, Config{})
	h.m.MapAddr(hostS0, "s0")
	h.m.MapAddr(hostS1, "s1")
	h.register(hostS0, true)
	h.register(hostS1, false)
	if !h.m.Clean() {
		t.Fatalf("normal registration flagged: %v", h.m.Violations())
	}
	// Promotion of s1 while s0 is alive and primary, outside any window:
	// split-brain.
	h.pub(obs.Event{Kind: obs.KindPromotion, Node: "s1", Service: testSvc})
	vs := violationsOf(h.m, RuleMembership)
	if len(vs) != 1 {
		t.Fatalf("split-brain promotion not reported: %v", h.m.Violations())
	}
}

// TestMembershipRegistrationRace: a backup that registers before the
// primary heads the chain alone, and a chain configuration from then can
// reach it after the primary registered. Promoted with no connection, it is
// demoted by the newer configuration: legal. Holding a connection, the same
// promotion is a second primary.
func TestMembershipRegistrationRace(t *testing.T) {
	h := newHarness(t, Config{})
	h.m.MapAddr(hostS0, "s0")
	h.m.MapAddr(hostS1, "s1")
	h.register(hostS1, false)
	h.register(hostS0, true)
	h.pub(obs.Event{Kind: obs.KindPromotion, Node: "s1", Service: testSvc})
	h.pub(obs.Event{Kind: obs.KindDemotion, Node: "s1", Service: testSvc})
	if !h.m.Clean() {
		t.Fatalf("registration race flagged: %v", h.m.Violations())
	}
	h.pub(obs.Event{Kind: obs.KindPromotion, Node: "s1", Service: testSvc, Count: 1})
	if vs := violationsOf(h.m, RuleMembership); len(vs) != 1 {
		t.Fatalf("promotion of the early backup holding a connection not reported: %v", h.m.Violations())
	}
}

func TestMembershipFailoverIsClean(t *testing.T) {
	h := newHarness(t, Config{})
	h.m.MapAddr(hostS0, "s0")
	h.m.MapAddr(hostS1, "s1")
	h.register(hostS0, true)
	h.register(hostS1, false)
	h.pub(obs.Event{Kind: obs.KindNodeCrash, Node: "s0"})
	h.pub(obs.Event{Kind: obs.KindReconfig, Node: "rd",
		Service: testSvc, Cause: "failed", Hosts: []inet.Addr{hostS0}})
	h.pub(obs.Event{Kind: obs.KindPromotion, Node: "s1", Service: testSvc})
	if !h.m.Clean() {
		t.Fatalf("legitimate failover flagged: %v", h.m.Violations())
	}
}

func TestClientDeliveryConservation(t *testing.T) {
	h := newHarness(t, Config{})
	h.pub(obs.Event{Kind: obs.KindDeposit, Node: "client",
		Service: testClient, Conn: testSvc, Seq: 1000, Size: 800})
	h.pub(obs.Event{Kind: obs.KindClientDeliver, Node: "client", Size: 800})
	if !h.m.Clean() {
		t.Fatalf("conserved delivery flagged: %v", h.m.Violations())
	}
	h.pub(obs.Event{Kind: obs.KindClientDeliver, Node: "client", Size: 1})
	vs := violationsOf(h.m, RuleDelivery)
	if len(vs) != 1 || vs[0].Want != 800 || vs[0].Got != 801 {
		t.Fatalf("over-delivery not reported: %v", h.m.Violations())
	}
}

func TestFrameConservationAtQuiesce(t *testing.T) {
	out := 3
	m := New(Config{Outstanding: func() int { return out }})
	r := m.Finish(true)
	if r.Clean || !r.QuiesceChecked || r.OutstandingFrames != 3 {
		t.Fatalf("frame leak not reported: %+v", r)
	}
	if len(violationsOf(m, RuleConservation)) != 1 {
		t.Fatalf("leak violation missing: %v", m.Violations())
	}

	// Not idle: undecidable, no violation, not checked.
	m2 := New(Config{Outstanding: func() int { return 3 }})
	r2 := m2.Finish(false)
	if !r2.Clean || r2.QuiesceChecked {
		t.Fatalf("non-quiescent run should not decide conservation: %+v", r2)
	}
}

func TestViolationCapCountsBeyond(t *testing.T) {
	const forged = DefaultMaxViolations + 1
	h := newHarness(t, Config{})
	h.clientAck(1000)
	for i := 0; i < forged; i++ {
		h.clientAck(100)  // regression against the 1000 baseline
		h.clientAck(1000) // restore the baseline for the next lap
	}
	vs := h.m.Violations()
	if len(vs) != DefaultMaxViolations {
		t.Fatalf("cap not enforced: %d recorded", len(vs))
	}
	var r = h.m.Finish(false)
	for _, rr := range r.Rules {
		if rr.Rule == RuleAck && rr.Violations != forged {
			t.Fatalf("beyond-cap violations not counted: %+v", rr)
		}
	}
}

func TestReportDeterministicShape(t *testing.T) {
	h := newHarness(t, Config{Scenario: "unit"})
	h.deposit("s0", 1000, 0)
	h.deposit("s0", 2000, 1000)
	r := h.m.Finish(true)
	if r.Scenario != "unit" || !r.Clean {
		t.Fatalf("report header wrong: %+v", r)
	}
	if len(r.Rules) != numRules {
		t.Fatalf("want %d rule rows, got %d", numRules, len(r.Rules))
	}
	for i, rr := range r.Rules {
		if rr.Rule != ruleNames[i] {
			t.Fatalf("rule order not fixed: %v", r.Rules)
		}
	}
	for i := 1; i < len(r.EventCounts); i++ {
		if r.EventCounts[i-1].Kind >= r.EventCounts[i].Kind {
			t.Fatalf("event counts not name-sorted: %v", r.EventCounts)
		}
	}
	if r.TotalViolations() != 0 {
		t.Fatalf("clean run reports violations: %+v", r)
	}
}

// TestKindRoleComplete asserts every obs kind has a monitor rule mapping,
// so a new event type cannot silently escape the oracle (satellite: kind
// completeness).
func TestKindRoleComplete(t *testing.T) {
	for _, k := range obs.Kinds() {
		role, ok := KindRole(k)
		if !ok || role == "" {
			t.Errorf("kind %v has no monitor rule mapping; teach KindRole (and a rule, if it carries a safety obligation)", k)
		}
	}
	if _, ok := KindRole(obs.Kind(250)); ok {
		t.Errorf("unknown kind should not report a role")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Rule: RuleGate, Time: 42 * time.Millisecond,
		Node: "s1", Conn: "10.9.0.9:5001", Detail: "premature ACK", Want: 10, Got: 20}
	s := v.String()
	for _, part := range []string{"ft-gate", "premature ACK", "s1", "want=10", "got=20"} {
		if !strings.Contains(s, part) {
			t.Fatalf("String() missing %q: %s", part, s)
		}
	}
}
