package hydranet_test

import (
	"runtime"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/invariant"
	"hydranet/internal/obs"
	"hydranet/internal/testbed"
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
		bus := new(obs.Bus) // no clock: every event at virtual time 0
		if attach {
			invariant.New(invariant.Config{}).Attach(bus)
		}
		svc := hydranet.Endpoint{Addr: hydranet.MustAddr("10.9.0.9"), Port: 80}
		cli := hydranet.Endpoint{Addr: hydranet.MustAddr("10.1.0.1"), Port: 4000}
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
	hot := []obs.Kind{hydranet.KindDeposit, hydranet.KindAckProgress, hydranet.KindChainSend, hydranet.KindChainRecv, hydranet.KindMulticast}
	seen, before := make([]uint64, len(obs.Kinds())), make([]uint64, len(obs.Kinds()))
	var m0, m1 runtime.MemStats
	row(t, testbed.Scenario{Seed: 3, Replicas: 2, TTCP: ttcp.Params{BufLen: 1024, Count: 1 << 30},
		Setup: func(r *testbed.Run) { r.Net.Bus().Subscribe(func(e hydranet.Event) { seen[e.Kind]++ }, hot...) },
		Steps: []testbed.Step{
			// Warm-up: every tracking slot and buffer exists.
			{After: 5 * time.Second, Do: func(*testbed.Run) { copy(before, seen); runtime.ReadMemStats(&m0) }},
			{After: 5 * time.Second, Do: func(*testbed.Run) { runtime.ReadMemStats(&m1) }},
		}}, verdict{})
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
}

// TestMonitorCleanOnFailover is the paper's semantic claim as a test: a
// crash-failover run delivers exactly-once under the monitor's full rule
// set, and every stream rule actually evaluated (a monitor that checks
// nothing also violates nothing).
func TestMonitorCleanOnFailover(t *testing.T) {
	captureRow(t, hydranet.Instruments{Scenario: "failover"}, func(run *testbed.Run) {
		r := run.Summary.Audit
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
	})

	// The gate and membership rules judge against a replica set the monitor
	// rebuilds from the daemon's registration and reconfiguration events. If
	// it stopped understanding them the set would be empty, both rules
	// vacuous, and every report clean.
	var mon *hydranet.Monitor
	row(t, testbed.Scenario{Seed: 12, Replicas: 3, Send: []byte("members"),
		Setup: func(r *testbed.Run) { mon = r.Net.StartMonitor(hydranet.MonitorConfig{}) },
		Steps: []testbed.Step{{Do: func(r *testbed.Run) {
			if got := mon.Members(testSvc); got != 3 {
				t.Errorf("monitor learnt %d members from 3 registrations", got)
			}
			if err := r.Service.Leave(r.Replicas[2]); err != nil {
				t.Fatal(err)
			}
			r.Net.Settle()
			if got := mon.Members(testSvc); got != 2 {
				t.Errorf("monitor counts %d members after one of 3 left", got)
			}
		}}}}, verdict{echo: true})
}

// TestMonitorSeededViolations is the oracle's own oracle: it forges a
// duplicate deposit and a premature client ACK out of captured real
// events, and requires the monitor to report both. The forge counters
// guard the guard — if the capture hooks never saw a real event to forge,
// the test fails rather than passing on silence.
func TestMonitorSeededViolations(t *testing.T) {
	// Capture one real replica deposit and one real client-side ACK to
	// forge from.
	var lastDeposit, lastClientAck hydranet.Event
	var deposits, clientAcks int
	payload := make([]byte, 256*1024)
	row(t, testbed.Scenario{Seed: 13, Replicas: 2, Observe: hydranet.Instruments{Scenario: "seeded"}, Threshold: 3, Send: payload,
		Setup: func(r *testbed.Run) {
			r.Net.Bus().Subscribe(func(e hydranet.Event) {
				switch e.Kind {
				case hydranet.KindDeposit:
					if e.Node != "client" && e.Size > 0 {
						lastDeposit = e
						deposits++
					}
				case hydranet.KindAckProgress:
					if e.Node == "client" {
						lastClientAck = e
						clientAcks++
					}
				}
			}, hydranet.KindDeposit, hydranet.KindAckProgress)
		},
		Steps: []testbed.Step{{After: time.Second, Limit: time.Minute - time.Second, Until: func(r *testbed.Run) bool { return r.Delivered >= len(payload) },
			Do: func(r *testbed.Run) {
				// The faults must actually have fired material to forge.
				if deposits == 0 || clientAcks == 0 {
					t.Fatalf("no real events captured to forge (deposits=%d clientAcks=%d) — the self-test is vacuous", deposits, clientAcks)
				}
				// Fault 1: replay the last replica deposit verbatim — the
				// cursor did not advance by the bytes deposited, i.e.
				// duplicate delivery.
				r.Net.Bus().Publish(lastDeposit)
				// Fault 2: a client ACK far beyond the replica deposit
				// minimum.
				forged := lastClientAck
				forged.Seq += 1 << 20
				r.Net.Bus().Publish(forged)
			}}},
	}, verdict{echo: true, violated: []string{invariant.RuleDeposit, invariant.RuleGate}, check: func(r *testbed.Run) {
		for _, v := range r.Summary.Audit.Violations {
			if v.Time == 0 {
				t.Errorf("violation missing virtual-clock instant: %+v", v)
			}
		}
	}})
}

// TestMonitorCleanOnGrayFailure runs the gray-failure scenario — a slow,
// not crashed, backup strangling the ack chain — under the monitor. The
// degraded replica forces retransmissions and suspicions; none of them may
// read as a safety violation, and the paper's retransmission detector must
// raise at least one suspicion after the stall.
func TestMonitorCleanOnGrayFailure(t *testing.T) {
	payload := make([]byte, 1<<20)
	var stallAt, suspicionAt time.Duration
	row(t, testbed.Scenario{Seed: 11, Replicas: 3, Observe: hydranet.Instruments{Scenario: "gray-failure"}, Threshold: 3, Send: payload,
		Setup: func(r *testbed.Run) {
			r.Net.Bus().Subscribe(func(e hydranet.Event) {
				if stallAt > 0 && e.Time > stallAt && suspicionAt == 0 {
					suspicionAt = e.Time
				}
			}, hydranet.KindSuspicion)
		},
		Steps: []testbed.Step{
			{After: 400 * time.Millisecond, Do: func(r *testbed.Run) {
				stallAt = r.Net.Now()
				r.Replicas[2].SetProcessing(250*time.Millisecond, 0)
			}},
			{After: 60 * time.Second},
			readAll(len(payload), 4*time.Minute),
		}}, verdict{echo: true, check: func(*testbed.Run) {
		if suspicionAt == 0 {
			t.Fatalf("no suspicion after the stall at %v: the detector did not see the slow backup", stallAt)
		}
		t.Logf("stall %v → first suspicion %v", stallAt, suspicionAt)
	}})
}
