package sim

import (
	"slices"
	"testing"
	"time"
	"unsafe"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSchedulerTieBreakFIFO(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("tie-broken order %v, want FIFO", order)
		}
	}
}

func TestSchedulerAfterAccumulates(t *testing.T) {
	s := NewScheduler(1)
	var at []time.Duration
	var chain func()
	n := 0
	chain = func() {
		at = append(at, s.Now())
		n++
		if n < 3 {
			s.After(10*time.Millisecond, chain)
		}
	}
	s.After(10*time.Millisecond, chain)
	s.Run()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("firing times %v, want %v", at, want)
		}
	}
}

func TestEventCancel(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	e := s.At(time.Millisecond, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", s.Fired())
	}
}

func TestCancelNilEvent(t *testing.T) {
	var e *Event
	e.Cancel() // must not panic
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5*time.Millisecond, func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var fired []time.Duration
	for _, d := range []time.Duration{10, 20, 30, 40} {
		d := d * time.Millisecond
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(25 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 25*time.Millisecond {
		t.Fatalf("clock = %v, want 25ms", s.Now())
	}
	// Remaining events still run afterwards.
	s.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := NewScheduler(1)
	s.RunUntil(time.Second)
	if s.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", s.Now())
	}
}

// TestRunUntilStopKeepsClock: a RunUntil cut short by Stop must not jump the
// clock over events it left pending, or the next run would move it backwards.
func TestRunUntilStopKeepsClock(t *testing.T) {
	s := NewScheduler(1)
	var second time.Duration
	s.At(time.Second, s.Stop)
	s.At(2*time.Second, func() { second = s.Now() })
	s.RunUntil(10 * time.Second)
	if s.Now() != time.Second || s.Pending() != 1 {
		t.Fatalf("after Stop: clock %v with %d pending, want 1s with 1", s.Now(), s.Pending())
	}
	s.RunUntil(10 * time.Second)
	if second != 2*time.Second || s.Now() != 10*time.Second {
		t.Fatalf("resumed run fired the pending event at %v and ended at %v, want 2s and 10s", second, s.Now())
	}

	// Stopped by the last event at or before the deadline: nothing is left
	// to overtake, so the clock does advance.
	s.At(11*time.Second, s.Stop)
	s.At(30*time.Second, func() {})
	s.RunUntil(20 * time.Second)
	if s.Now() != 20*time.Second {
		t.Fatalf("clock %v after a Stop with nothing left before the deadline, want 20s", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 2 {
		t.Fatalf("ran %d events after Stop, want 2", count)
	}
}

func TestTimerResetAndStop(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	if tm.Armed() {
		t.Fatal("new timer is armed")
	}
	tm.Reset(10 * time.Millisecond)
	if !tm.Armed() {
		t.Fatal("Reset did not arm timer")
	}
	// Re-arming supersedes the previous deadline.
	tm.Reset(50 * time.Millisecond)
	if got := tm.Deadline(); got != 50*time.Millisecond {
		t.Fatalf("deadline = %v, want 50ms", got)
	}
	s.RunUntil(30 * time.Millisecond)
	if fired != 0 {
		t.Fatal("superseded deadline fired")
	}
	s.RunUntil(60 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}

	tm.Reset(10 * time.Millisecond)
	tm.Stop()
	s.Run()
	if fired != 1 {
		t.Fatal("stopped timer fired")
	}
}

func TestPendingExcludesCancelled(t *testing.T) {
	s := NewScheduler(1)
	live := s.At(time.Millisecond, func() {})
	_ = live
	e := s.At(2*time.Millisecond, func() {})
	e.Cancel()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d with one live and one cancelled event, want 1", got)
	}
}

func TestStaleHandleCancelIsNoOp(t *testing.T) {
	s := NewScheduler(1)
	stale := s.At(time.Millisecond, func() {})
	s.Run() // fires the event; its node returns to the free list

	// The free list must hand the same node to the next event.
	fired := false
	fresh := s.At(s.Now()+time.Millisecond, func() { fired = true })
	stale.Cancel() // stale generation: must not cancel the new occupant
	s.Run()
	if !fired {
		t.Fatal("stale Cancel killed an unrelated recycled event")
	}
	if fresh.Cancelled() != true {
		t.Fatal("fired event should report Cancelled (will never fire again)")
	}
}

func TestCompactionBoundsQueue(t *testing.T) {
	s := NewScheduler(1)
	// Schedule far-future events and cancel them at once, never letting the
	// clock advance past them: only compaction can remove the dead nodes.
	const n = 100_000
	for i := 0; i < n; i++ {
		e := s.At(s.Now()+time.Hour, func() {})
		e.Cancel()
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d after cancelling everything, want 0", got)
	}
	if len(s.heap) > 1024 {
		t.Fatalf("heap holds %d dead nodes after %d cancels; compaction failed", len(s.heap), n)
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewScheduler(42)
	b := NewScheduler(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestPendingCount(t *testing.T) {
	s := NewScheduler(1)
	s.At(time.Millisecond, func() {})
	s.At(2*time.Millisecond, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", s.Pending())
	}
}

// TestLaneKeepsHeapShallow models netsim's three events per frame — sender
// CPU, arrival, receiver CPU — for 1000 frames sent at once
// through a slow CPU and a slow link: each resource's backlog waits in its
// lane, so the heap holds one entry per busy resource, and the frames still
// complete in send order.
func TestLaneKeepsHeapShallow(t *testing.T) {
	const (
		frames = 1000
		cpu    = 70 * time.Microsecond
		wire   = 120 * time.Microsecond
		delay  = 5 * time.Millisecond
	)
	s := NewScheduler(1)
	var txCPU, arrive, rxCPU Lane
	var txFree, linkFree, rxFree time.Duration
	busyUntil := func(free *time.Duration, cost time.Duration) time.Duration {
		if *free < s.Now() {
			*free = s.Now()
		}
		*free += cost
		return *free
	}
	deepest := 0
	sample := func() {
		if len(s.heap) > deepest {
			deepest = len(s.heap)
		}
	}
	var got []int
	for i := 0; i < frames; i++ {
		i := i
		txCPU.At(s, busyUntil(&txFree, cpu), func() {
			sample()
			done := busyUntil(&linkFree, wire)
			arrive.At(s, done+delay, func() {
				sample()
				rxCPU.At(s, busyUntil(&rxFree, cpu), func() {
					sample()
					got = append(got, i)
				})
			})
		})
	}
	if s.Pending() != frames {
		t.Fatalf("Pending = %d with %d frames queued, want all of them", s.Pending(), frames)
	}
	s.Run()
	if deepest > 8 {
		t.Errorf("heap grew to %d entries, want at most 8", deepest)
	}
	if len(got) != frames {
		t.Fatalf("%d of %d frames completed", len(got), frames)
	}
	for i, f := range got {
		if f != i {
			t.Fatalf("frame %d completed in position %d", f, i)
		}
	}
	if s.Fired() != 3*frames {
		t.Errorf("Fired = %d, want %d", s.Fired(), 3*frames)
	}
}

// TestLaneCancelKeepsHeapShallow: a lane of 5000 equal-duration waits — a TCP
// stack's TIME-WAIT population — of which every tenth is cancelled where it
// waits holds one heap slot throughout; a cancelled wait neither fires nor
// counts as pending, and the others fire in order at their own instants.
func TestLaneCancelKeepsHeapShallow(t *testing.T) {
	const (
		entries = 5000
		wait    = 30 * time.Second
	)
	s := NewScheduler(1)
	var lane Lane
	var fired []int
	handles := make([]Event, entries)
	deepest := 0
	s.At(0, func() {}) // something else in the heap: the clock's own driver
	for i := 0; i < entries; i++ {
		s.RunUntil(time.Duration(i) * time.Millisecond)
		handles[i] = lane.At(s, s.Now()+wait, func() {
			if want := time.Duration(i)*time.Millisecond + wait; s.Now() != want {
				t.Errorf("entry %d fired at %v, want %v", i, s.Now(), want)
			}
			fired = append(fired, i)
		})
		switch i % 20 {
		case 9:
			handles[i].Cancel() // the tail
		case 19:
			handles[i-5].Cancel() // mid-chain
		}
		if len(s.heap) > deepest {
			deepest = len(s.heap)
		}
	}
	handles[0].Cancel() // the head, which holds the heap slot
	cancelled := entries/10 + 1
	if got := s.Pending(); got != entries-cancelled {
		t.Fatalf("Pending = %d with %d of %d entries cancelled, want %d", got, cancelled, entries, entries-cancelled)
	}
	for s.Step() {
		if len(s.heap) > deepest {
			deepest = len(s.heap)
		}
	}
	if deepest > 2 {
		t.Errorf("heap grew to %d slots, want at most 2", deepest)
	}
	if len(fired) != entries-cancelled || s.Fired() != uint64(1+entries-cancelled) {
		t.Fatalf("%d entries fired, Fired = %d, want %d and %d", len(fired), s.Fired(), entries-cancelled, 1+entries-cancelled)
	}
	for k := 1; k < len(fired); k++ {
		if fired[k] <= fired[k-1] {
			t.Fatalf("entry %d fired after entry %d", fired[k], fired[k-1])
		}
	}
	for _, i := range fired {
		if !handles[i].Cancelled() {
			t.Fatalf("entry %d still reports live after firing", i)
		}
		if i == 0 || i%20 == 9 || i%20 == 14 {
			t.Fatalf("cancelled entry %d fired", i)
		}
	}
}

// TestLaneReusesCancelledTail: a lane whose tail is cancelled before the next
// event is scheduled on it — a reassembly timeout once its datagram is
// complete — fires in the (time, sequence) order of plain At, holds two nodes
// however many waits were cancelled, and the reused node's old handle is
// inert.
func TestLaneReusesCancelledTail(t *testing.T) {
	type firing struct {
		at  time.Duration
		tag int
	}
	play := func(schedule func(s *Scheduler, t time.Duration, fn func()) Event) []firing {
		s := NewScheduler(1)
		var got []firing
		ev := func(tag int) func() { return func() { got = append(got, firing{s.Now(), tag}) } }
		for i := 0; i < 1000; i++ {
			s.RunUntil(time.Duration(i/4) * time.Millisecond)
			h := schedule(s, s.Now()+30*time.Second, ev(i))
			s.At(s.Now()+30*time.Second, ev(-i)) // same instant, later sequence
			if i%3 != 0 {
				h.Cancel()
			}
		}
		s.Run()
		return got
	}
	var lane Lane
	got := play(lane.At)
	want := play(func(s *Scheduler, t time.Duration, fn func()) Event { return s.At(t, fn) })
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("lane fired %d events, plain At %d; they differ from firing %d on", len(got), len(want), i)
	}

	s := NewScheduler(1)
	var l Lane
	l.At(s, time.Second, func() {}) // the lane's head, in the heap
	var old Event
	for i := 0; i < 1000; i++ {
		old = l.At(s, 2*time.Second, func() { t.Error("a cancelled wait fired") })
		old.Cancel()
	}
	if len(s.chunks) != 1 || s.Pending() != 1 {
		t.Fatalf("1000 cancelled waits left %d chunks and %d pending, want 1 and 1", len(s.chunks), s.Pending())
	}
	fired := false
	l.At(s, 3*time.Second, func() { fired = true })
	old.Cancel() // names the node the new event took
	if s.Pending() != 2 {
		t.Errorf("Pending = %d after a stale Cancel, want 2", s.Pending())
	}
	s.Run()
	if !fired {
		t.Error("a stale handle cancelled the event that reused its node")
	}
}

// TestTimerHoldsOneNode: however often a timer is pushed back, or stopped and
// re-armed, it occupies one heap entry and leaves no dead ones behind.
func TestTimerHoldsOneNode(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	check := func(i int) {
		t.Helper()
		if len(s.heap) > 1 || s.dead > 1 {
			t.Fatalf("cycle %d: %d heap entries, %d dead, want at most one of each", i, len(s.heap), s.dead)
		}
	}
	for i := 0; i < 10_000; i++ {
		tm.Reset(time.Second)
		check(i)
		if i%3 == 0 {
			tm.Stop()
			check(i)
			tm.Reset(time.Second + time.Microsecond)
			check(i)
		}
		if i%100 == 0 { // let the clock move, short of the deadline
			s.RunUntil(s.Now() + time.Millisecond)
		}
	}
	if fired != 0 || s.Pending() != 1 {
		t.Fatalf("fired %d times with %d pending before the deadline, want 0 and 1", fired, s.Pending())
	}
	want := s.Now() + 500*time.Millisecond
	tm.Reset(500 * time.Millisecond) // earlier than the wake-up: that node is abandoned
	if len(s.heap) != 2 || s.dead != 1 || s.Pending() != 1 {
		t.Fatalf("after an earlier Reset: %d heap entries, %d dead, %d pending, want 2, 1, 1", len(s.heap), s.dead, s.Pending())
	}
	s.Run()
	if fired != 1 || s.Now() != want {
		t.Fatalf("fired %d times, clock %v, want once at %v", fired, s.Now(), want)
	}
	if s.Fired() != 1 {
		t.Errorf("Fired = %d: wake-ups that only move the timer must not count", s.Fired())
	}
}

// TestEventNodeSize: a node is one cache line. The fields are the callback,
// the lane and timer links and the (at, seq) key — nothing per-event rides
// along for an observer.
func TestEventNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(eventNode{}); got != 64 {
		t.Errorf("eventNode is %d bytes, want 64", got)
	}
}

// countHandler is a Handler that counts its firings.
type countHandler int

func (c *countHandler) OnTimer() { *c++ }

// TestSteadyStateAllocs pins the allocation-free scheduling paths: At and
// After with the event fired, scheduling on a lane and firing from it, with
// a func or a Handler, and re-arming a timer.
func TestSteadyStateAllocs(t *testing.T) {
	s := NewScheduler(1)
	var lane Lane
	fn := func() {}
	if avg := testing.AllocsPerRun(1000, func() {
		s.At(s.Now()+time.Microsecond, fn)
		s.After(time.Microsecond, fn)
		s.Step()
		s.Step()
	}); avg != 0 {
		t.Errorf("At + After + Step allocates %.1f objects per cycle, want 0", avg)
	}
	at := s.Now()
	for i := 0; i < 64; i++ { // a standing backlog, so events chain and promote
		at += time.Microsecond
		lane.At(s, at, fn)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		at += time.Microsecond
		lane.At(s, at, fn)
		s.Step()
	}); avg != 0 {
		t.Errorf("Lane.At + Step allocates %.1f objects per cycle, want 0", avg)
	}
	var h countHandler
	if avg := testing.AllocsPerRun(1000, func() {
		at += time.Microsecond
		lane.AtHandler(s, at, &h)
		s.Step()
	}); avg != 0 {
		t.Errorf("Lane.AtHandler + Step allocates %.1f objects per cycle, want 0", avg)
	}
	if h == 0 {
		t.Error("no Lane.AtHandler event fired")
	}
	tm := NewTimer(s, fn)
	tm.Reset(time.Second)
	if avg := testing.AllocsPerRun(1000, func() {
		tm.Reset(time.Second)
		tm.Stop()
		tm.Reset(2 * time.Second)
	}); avg != 0 {
		t.Errorf("Timer.Reset allocates %.1f objects per cycle, want 0", avg)
	}
}
