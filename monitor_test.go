package hydranet

import (
	"runtime"
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/invariant"
	"hydranet/internal/obs"
	"hydranet/internal/ttcp"
)

// TestMonitorZeroCostWhenDetached pins the monitor's zero-cost contract:
// with no monitor attached the bus publishes nothing (emit sites stay
// behind Bus.Enabled), and with one attached its per-event hot path
// allocates nothing in steady state — tracking slots allocate on first
// contact with a connection, never per event. CI runs this by name; do
// not rename.
func TestMonitorZeroCostWhenDetached(t *testing.T) {
	measure := func(attach bool) float64 {
		bus := obs.NewBus(func() time.Duration { return 0 })
		noteFrame := func(int) {}
		if attach {
			m := invariant.New(invariant.Config{})
			m.Attach(bus)
			noteFrame = m.NoteFrame
		}
		svc := Endpoint{Addr: MustAddr("10.9.0.9"), Port: 80}
		cli := Endpoint{Addr: MustAddr("10.1.0.1"), Port: 4000}
		var cursor, ack uint64 = 1000, 1000
		cycle := func() {
			// A violation-free deposit/ack/chain/deliver round on one
			// connection: every rule on the hot path evaluates.
			cursor += 512
			ack += 512
			if bus.Enabled(obs.KindDeposit) {
				bus.Publish(obs.Event{Kind: obs.KindDeposit, Node: "s0",
					Service: svc, Conn: cli, Seq: cursor, Size: 512})
			}
			if bus.Enabled(obs.KindAckProgress) {
				bus.Publish(obs.Event{Kind: obs.KindAckProgress, Node: "client",
					Service: cli, Conn: svc, Seq: ack})
			}
			if bus.Enabled(obs.KindChainSend) {
				bus.Publish(obs.Event{Kind: obs.KindChainSend, Node: "s0",
					Service: svc, Conn: cli, Seq: cursor, Ack: ack})
			}
			if bus.Enabled(obs.KindChainRecv) {
				bus.Publish(obs.Event{Kind: obs.KindChainRecv, Node: "s1",
					Service: svc, Conn: cli, Seq: cursor, Ack: ack})
			}
			if bus.Enabled(obs.KindClientDeliver) {
				bus.Publish(obs.Event{Kind: obs.KindClientDeliver, Node: "s0", Size: 256})
			}
			noteFrame(552)
		}
		for i := 0; i < 256; i++ {
			cycle()
		}
		return testing.AllocsPerRun(1000, cycle)
	}
	if a := measure(false); a != 0 {
		t.Errorf("detached bus allocates %.1f per event round, want 0", a)
	}
	if a := measure(true); a != 0 {
		t.Errorf("attached monitor steady state allocates %.1f per event round, want 0", a)
	}
}

// TestAttachedObserversAllocateNothingPerEvent is the same contract measured
// at the real emit sites: a two-replica transfer with the monitor attached,
// once every connection has its tracking slots, allocates nothing for a
// deposit, ack-progress,
// chain-send, chain-recv or multicast event — the event carries endpoints as
// values and the subscribers key on them. (When each emit site rendered its
// endpoints the same stretch allocated more than two strings per event.)
func TestAttachedObserversAllocateNothingPerEvent(t *testing.T) {
	net, client, rd, replicas, _ := ftTopology(Config{Seed: 3}, 2, LinkConfig{})
	sess, err := net.Instrument(Instruments{Invariants: true})
	if err != nil {
		t.Fatal(err)
	}
	hot := []obs.Kind{KindDeposit, KindAckProgress, KindChainSend, KindChainRecv, KindMulticast}
	seen := make([]uint64, len(obs.Kinds()))
	net.Bus().Subscribe(func(e Event) { seen[e.Kind]++ }, hot...)
	if _, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, func(c *Conn) { ttcp.Sink(c) }); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	ttcp.Transmit(client.Scheduler(), conn, ttcp.Params{BufLen: 1024, Count: 1 << 30}, func(ttcp.Result) {})
	net.RunFor(5 * time.Second) // warm-up: every tracking slot and buffer exists

	before := append([]uint64(nil), seen...)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	net.RunFor(5 * time.Second)
	runtime.ReadMemStats(&m1)
	var events uint64
	for _, k := range hot {
		n := seen[k] - before[k]
		if n < 1000 {
			t.Errorf("only %d %s events in the measured stretch", n, k)
		}
		events += n
	}
	if perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(events); perEvent >= 0.01 {
		t.Errorf("%d allocations over %d monitored events (%.3f each), want none",
			m1.Mallocs-m0.Mallocs, events, perEvent)
	}
	if sum, err := sess.Finish(); err != nil || !sum.Audit.Clean {
		t.Fatalf("finish: %v, audit %+v", err, sum.Audit)
	}
}

// TestMonitorCleanOnFailover is the paper's semantic claim as a test: a
// crash-failover run delivers exactly-once under the monitor's full rule
// set, and every stream rule actually evaluated (a monitor that checks
// nothing also violates nothing).
func TestMonitorCleanOnFailover(t *testing.T) {
	captureFailover(Instruments{Scenario: "failover"}, func(run *faultRun) {
		r := run.sum.Audit
		if !r.QuiesceChecked || r.OutstandingFrames != 0 {
			t.Fatalf("frame conservation undecided or leaking: checked=%v outstanding=%d",
				r.QuiesceChecked, r.OutstandingFrames)
		}
		exercised := map[string]bool{}
		for _, rr := range r.Rules {
			exercised[rr.Rule] = rr.Checks > 0
		}
		for _, rule := range []string{
			invariant.RuleDeposit, invariant.RuleAck, invariant.RuleGate,
			invariant.RuleChain, invariant.RuleMembership, invariant.RuleDelivery,
			invariant.RuleConservation,
		} {
			if !exercised[rule] {
				t.Errorf("rule %s never evaluated in a full failover run", rule)
			}
		}
		if r.Frames == 0 || r.Events == 0 {
			t.Fatalf("monitor observed nothing: %d events, %d frames", r.Events, r.Frames)
		}
	}).play(t)

	// The gate and membership rules judge against a replica set the monitor
	// rebuilds from the daemon's registration and reconfiguration events. If
	// it stopped understanding them the set would be empty, both rules
	// vacuous, and every report clean.
	net, _, rd, replicas, _ := ftTopology(Config{Seed: 12}, 3, LinkConfig{})
	mon := net.StartMonitor(MonitorConfig{})
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got := mon.Members(testSvc); got != len(replicas) {
		t.Errorf("monitor learnt %d members from %d registrations", got, len(replicas))
	}
	if err := svc.Leave(replicas[2]); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got := mon.Members(testSvc); got != len(replicas)-1 {
		t.Errorf("monitor counts %d members after one of %d left", got, len(replicas))
	}
}

// TestMonitorSeededViolations is the oracle's own oracle: it forges a
// duplicate deposit and a premature client ACK out of captured real
// events, and requires the monitor to report both. The forge counters
// guard the guard — if the capture hooks never saw a real event to forge,
// the test fails rather than passing on silence.
func TestMonitorSeededViolations(t *testing.T) {
	net, client, rd, replicas, _ := ftTopology(Config{Seed: 13}, 2, LinkConfig{})
	mon := net.StartMonitor(MonitorConfig{Scenario: "seeded"})

	// Capture one real replica deposit and one real client-side ACK to
	// forge from.
	var lastDeposit, lastClientAck Event
	var deposits, clientAcks int
	net.Bus().Subscribe(func(e Event) {
		switch e.Kind {
		case KindDeposit:
			if e.Node != "client" && e.Size > 0 {
				lastDeposit = e
				deposits++
			}
		case KindAckProgress:
			if e.Node == "client" {
				lastClientAck = e
				clientAcks++
			}
		}
	}, KindDeposit, KindAckProgress)

	if _, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 3}}, echoAccept()); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	payload := make([]byte, 256*1024)
	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	echoed := collect(conn)
	app.Source(conn, payload, false)
	for len(*echoed) < len(payload) && net.Now() < time.Minute {
		net.RunFor(time.Second)
	}
	if len(*echoed) != len(payload) {
		t.Fatalf("client received %d of %d bytes", len(*echoed), len(payload))
	}

	// The faults must actually have fired material to forge.
	if deposits == 0 || clientAcks == 0 {
		t.Fatalf("no real events captured to forge (deposits=%d clientAcks=%d) — the self-test is vacuous", deposits, clientAcks)
	}

	// Fault 1: replay the last replica deposit verbatim — the cursor did
	// not advance by the bytes deposited, i.e. duplicate delivery.
	net.Bus().Publish(lastDeposit)
	// Fault 2: a client ACK far beyond the replica deposit minimum.
	forged := lastClientAck
	forged.Seq += 1 << 20
	net.Bus().Publish(forged)

	r := net.FinishAudit(mon)
	if r.Clean {
		t.Fatal("monitor passed a run with seeded faults")
	}
	byRule := map[string]uint64{}
	for _, rr := range r.Rules {
		byRule[rr.Rule] = rr.Violations
	}
	if byRule[invariant.RuleDeposit] == 0 {
		t.Errorf("forged duplicate deposit not reported: %+v", r.Rules)
	}
	if byRule[invariant.RuleGate] == 0 {
		t.Errorf("forged premature client ACK not reported: %+v", r.Rules)
	}
	for _, v := range r.Violations {
		if v.Time == 0 {
			t.Errorf("violation missing virtual-clock instant: %+v", v)
		}
	}
}

// TestMonitorCleanOnGrayFailure runs the gray-failure scenario — a slow,
// not crashed, backup strangling the ack chain — under the monitor. The
// degraded replica forces retransmissions and suspicions; none of them may
// read as a safety violation.
func TestMonitorCleanOnGrayFailure(t *testing.T) {
	payload := make([]byte, 1<<20)
	faultCase{seed: 11, replicas: 3, in: Instruments{Scenario: "gray-failure"}, threshold: 3, send: payload, steps: []step{
		{after: 400 * time.Millisecond, do: func(r *faultRun) { r.replicas[2].SetProcessing(250*time.Millisecond, 0) }},
		{after: 60 * time.Second},
		readAll(len(payload), 4*time.Minute),
	}, verdict: verdict{echo: payload}}.play(t)
}
