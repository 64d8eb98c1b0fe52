package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestRandomEventsFireInTimestampOrder is the heap's core property under
// arbitrary insertion patterns, including insertions from inside running
// events.
func TestRandomEventsFireInTimestampOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewScheduler(1)
	var fired []time.Duration
	record := func() { fired = append(fired, s.Now()) }
	var schedule func(level int)
	schedule = func(level int) {
		n := rng.Intn(20) + 1
		for i := 0; i < n; i++ {
			at := s.Now() + time.Duration(rng.Intn(1000))*time.Millisecond
			if level < 3 && rng.Intn(4) == 0 {
				d := level
				s.At(at, func() { record(); schedule(d + 1) })
			} else {
				s.At(at, record)
			}
		}
	}
	schedule(0)
	s.Run()
	if len(fired) < 20 {
		t.Fatalf("only %d events fired", len(fired))
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatal("events fired out of timestamp order")
	}
}

// BenchmarkSchedulerThroughput measures raw event dispatch speed — the
// budget every simulated packet pays several times.
func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler(1)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < b.N {
			s.After(time.Microsecond, chain)
		}
	}
	b.ResetTimer()
	s.After(time.Microsecond, chain)
	s.Run()
}

// BenchmarkSchedulerMixedQueue exercises the heap with a standing backlog.
func BenchmarkSchedulerMixedQueue(b *testing.B) {
	s := NewScheduler(1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1024; i++ {
		s.At(time.Duration(rng.Intn(1_000_000))*time.Microsecond, func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+time.Duration(rng.Intn(1000))*time.Microsecond, func() {})
		s.Step()
	}
}

// BenchmarkSchedulerBacklog is one schedule/dispatch cycle with 2000 events
// standing in the queue the way a loaded fabric holds them: behind a few
// serial resources (four lanes of 500), plus one re-armed timer per cycle.
// The cost must not depend on the backlog, which BenchmarkSchedulerPushPop's
// empty queue cannot show.
func BenchmarkSchedulerBacklog(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	var lanes [4]Lane
	var last [4]time.Duration
	tm := NewTimer(s, fn)
	for i := 0; i < 2000; i++ {
		last[i%4] += time.Microsecond
		lanes[i%4].At(s, last[i%4], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last[i%4] += time.Microsecond
		lanes[i%4].At(s, last[i%4], fn)
		tm.Reset(time.Second)
		s.Step()
	}
}

// BenchmarkSchedulerPushPop is the allocation budget of one schedule/dispatch
// cycle, the cost every simulated packet pays several times per hop.
func BenchmarkSchedulerPushPop(b *testing.B) {
	s := NewScheduler(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+time.Microsecond, fn)
		s.Step()
	}
}

// BenchmarkSchedulerCancel measures the schedule-then-cancel cycle that TCP
// retransmission timers produce on every ACK (Timer.Reset churn).
func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.At(s.Now()+time.Second, func() {})
		e.Cancel()
		if i%64 == 0 {
			// Keep the clock moving so the queue cannot grow without bound
			// from the benchmark loop itself.
			s.After(0, func() {})
			s.Step()
		}
	}
}

// BenchmarkTimerResetChurn drives a Timer exactly the way a TCP connection
// under steady ACK clocking does: every iteration pushes the deadline back.
func BenchmarkTimerResetChurn(b *testing.B) {
	s := NewScheduler(1)
	t := NewTimer(s, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(time.Second)
		if i%64 == 0 {
			s.After(0, func() {})
			s.Step()
		}
	}
	b.StopTimer()
	if p := s.Pending(); p > b.N+2 {
		b.Fatalf("queue bloat: %d pending after %d resets", p, b.N)
	}
}
