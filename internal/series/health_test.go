package series

import (
	"testing"
	"time"
)

// tickAt feeds the scorer one interval for a two-replica set.
func tickAt(h *HealthScorer, t time.Duration, s0, s1 ReplicaSample) {
	s0.Name, s1.Name = "s0", "s1"
	h.Tick(t, []ReplicaSample{s0, s1})
}

func TestHealthScorerFlagsStraggler(t *testing.T) {
	h := NewHealthScorer()
	ms := func(n int) time.Duration { return time.Duration(n) * 100 * time.Millisecond }
	// s1's verdict transitions, read after every tick.
	var changes []Verdict
	tickAt := func(h *HealthScorer, at time.Duration, s0, s1 ReplicaSample) {
		tickAt(h, at, s0, s1)
		if v := h.Verdict("s1"); len(changes) == 0 && v != Healthy || len(changes) > 0 && v != changes[len(changes)-1] {
			changes = append(changes, v)
		}
	}

	// Baseline + healthy streaming: both replicas deposit in step.
	tickAt(h, ms(1), ReplicaSample{Alive: true}, ReplicaSample{Alive: true})
	for i := 2; i <= 4; i++ {
		d := float64(i * 1000)
		tickAt(h, ms(i),
			ReplicaSample{Alive: true, DepositedBytes: d, SegsIn: float64(i)},
			ReplicaSample{Alive: true, DepositedBytes: d, SegsIn: float64(i)})
	}
	if v := h.Verdict("s1"); v != Healthy {
		t.Fatalf("healthy phase: s1=%v", v)
	}

	// Gray failure: s1's CPU falls behind frame arrival while client
	// retransmissions arrive at both replicas (the redirector multicasts
	// them). The retransmissions arm the latch; the backlog names s1.
	for i := 5; i <= 7; i++ {
		tickAt(h, ms(i),
			ReplicaSample{Alive: true, DepositedBytes: 16000, PeerRetransmits: float64(i), SegsIn: float64(i)},
			ReplicaSample{Alive: true, DepositedBytes: 4000, PeerRetransmits: float64(i), SegsIn: float64(i),
				ProcBacklog: 300 * time.Millisecond})
	}
	if v := h.Verdict("s1"); v != Degraded {
		t.Fatalf("straggling s1=%v, want degraded", v)
	}
	// The replica that is keeping up is not blamed.
	if v := h.Verdict("s0"); v != Healthy {
		t.Fatalf("keeping-up s0=%v, want healthy", v)
	}
	at, ok := h.FirstDegradedAt("s1")
	if !ok || at != ms(6) {
		t.Fatalf("FirstDegradedAt=%v,%v want %v (sustain=2 → second distressed tick)", at, ok, ms(6))
	}

	// Recovery: the backlog drains and the set deposits in step again with
	// no retransmissions, so the distress latch clears and the verdict
	// decays back to Healthy.
	for i := 8; i <= 13; i++ {
		d := float64(16000 + i*1000)
		tickAt(h, ms(i),
			ReplicaSample{Alive: true, DepositedBytes: d, PeerRetransmits: 7, SegsIn: float64(i)},
			ReplicaSample{Alive: true, DepositedBytes: d, PeerRetransmits: 7, SegsIn: float64(i)})
	}
	if v := h.Verdict("s1"); v != Healthy {
		t.Fatalf("recovered s1=%v, want healthy", v)
	}
	if len(changes) != 2 || changes[0] != Degraded || changes[1] != Healthy {
		t.Fatalf("s1's verdicts changed to %v, want degraded then healthy", changes)
	}
}

// TestHealthScorerLatchSurvivesBackoffGaps pins the distress latch: under
// exponential RTO backoff the client's retransmissions arrive seconds
// apart, so most sampling intervals in the middle of a stall show a
// backlogged straggler but no fresh retransmission. The latch must hold
// across those gaps — and the straggler trickling the odd deposit must
// not count as recovery while its cursor still trails the set.
func TestHealthScorerLatchSurvivesBackoffGaps(t *testing.T) {
	h := NewHealthScorer()
	ms := func(n int) time.Duration { return time.Duration(n) * 100 * time.Millisecond }

	tickAt(h, ms(1), ReplicaSample{Alive: true}, ReplicaSample{Alive: true})
	// One retransmission burst, then silence: the client is in backoff.
	tickAt(h, ms(2),
		ReplicaSample{Alive: true, DepositedBytes: 40000, PeerRetransmits: 3, SegsIn: 2},
		ReplicaSample{Alive: true, DepositedBytes: 10000, PeerRetransmits: 3, SegsIn: 2,
			ProcBacklog: 400 * time.Millisecond})
	for i := 3; i <= 5; i++ {
		// No new retransmits; s1 trickles 1 KB per interval through its
		// clogged queue but stays far behind the cluster-max cursor.
		tickAt(h, ms(i),
			ReplicaSample{Alive: true, DepositedBytes: 40000, PeerRetransmits: 3, SegsIn: float64(i)},
			ReplicaSample{Alive: true, DepositedBytes: float64(10000 + i*1000), PeerRetransmits: 3, SegsIn: float64(i),
				ProcBacklog: 400 * time.Millisecond})
	}
	if v := h.Verdict("s1"); v != Degraded {
		t.Fatalf("lagging s1 during backoff gap=%v, want degraded (latch must hold)", v)
	}
	at, ok := h.FirstDegradedAt("s1")
	if !ok || at != ms(3) {
		t.Fatalf("FirstDegradedAt=%v,%v want %v", at, ok, ms(3))
	}
	// The set closes back in step: latch clears, clean intervals accrue.
	for i := 6; i <= 11; i++ {
		d := float64(40000 + i*1000)
		tickAt(h, ms(i),
			ReplicaSample{Alive: true, DepositedBytes: d, PeerRetransmits: 3, SegsIn: float64(i)},
			ReplicaSample{Alive: true, DepositedBytes: d, PeerRetransmits: 3, SegsIn: float64(i)})
	}
	if v := h.Verdict("s1"); v != Healthy {
		t.Fatalf("caught-up s1=%v, want healthy", v)
	}
}

func TestHealthScorerFailStopIsDead(t *testing.T) {
	h := NewHealthScorer()
	tickAt(h, 100*time.Millisecond, ReplicaSample{Alive: true}, ReplicaSample{Alive: true})
	tickAt(h, 200*time.Millisecond, ReplicaSample{Alive: true}, ReplicaSample{Alive: false})
	if v := h.Verdict("s1"); v != Dead {
		t.Fatalf("crashed s1=%v, want dead", v)
	}
}

func TestHealthScorerSilentReplicaDies(t *testing.T) {
	h := NewHealthScorer()
	ms := func(n int) time.Duration { return time.Duration(n) * 100 * time.Millisecond }
	tickAt(h, ms(1), ReplicaSample{Alive: true}, ReplicaSample{Alive: true})
	// s0 keeps receiving; s1 hears nothing at all (partition, not slowness)
	// from the tick at ms(3) on.
	for i := 2; i <= deadAfter+2; i++ {
		if v := h.Verdict("s1"); v != Healthy {
			t.Fatalf("s1=%v before the tick at %v, want healthy for %d silent intervals", v, ms(i), deadAfter-1)
		}
		tickAt(h, ms(i),
			ReplicaSample{Alive: true, SegsIn: float64(i), DepositedBytes: float64(i)},
			ReplicaSample{Alive: true, SegsIn: 1, DepositedBytes: 1})
	}
	if v := h.Verdict("s1"); v != Dead {
		t.Fatalf("silent s1=%v, want dead after %d silent intervals", v, deadAfter)
	}
	// An idle network (nobody receiving) must never kill anyone.
	h2 := NewHealthScorer()
	for i := 1; i <= 2*deadAfter; i++ {
		tickAt(h2, ms(i), ReplicaSample{Alive: true}, ReplicaSample{Alive: true})
	}
	if v := h2.Verdict("s0"); v != Healthy {
		t.Fatalf("idle s0=%v, want healthy", v)
	}
}
