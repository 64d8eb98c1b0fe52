package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The differential test: one sequence of operations drives the Scheduler and
// refSched, a scheduler simple enough to be right by inspection — every event
// sits in one sorted slice, a lane is plain At, a timer re-arm is cancel plus
// After, a cancelled event is deleted on the spot. Every callback must fire on
// both in the same order with the same clock, and every query
// must agree after every operation. The operations come from a byte stream, so
// the same driver serves seeded random sequences and the fuzzer.

const (
	refLanes  = 3
	refTimers = 4
)

type canceller interface{ Cancel() }

// schedAPI is what the driver needs of a scheduler under test.
type schedAPI interface {
	Now() time.Duration
	Fired() uint64
	Pending() int
	Step() bool
	RunUntil(time.Duration)
	Stop()

	nextAt() (time.Duration, bool) // when the earliest pending event is due

	at(t time.Duration, fn func()) canceller
	after(d time.Duration, fn func()) canceller
	laneAt(lane int, t time.Duration, fn func()) canceller
	timerInit(k int, fn func())
	timerReset(k int, d time.Duration)
	timerStop(k int)
	timerState(k int) (armed bool, deadline time.Duration)
}

// realSched adapts the Scheduler, with its lanes and timers, to schedAPI.
type realSched struct {
	*Scheduler
	lanes  [refLanes]Lane
	timers [refTimers]Timer
}

func newRealSched() *realSched { return &realSched{Scheduler: NewScheduler(1)} }

func (r *realSched) at(t time.Duration, fn func()) canceller {
	ev := r.At(t, fn)
	return &ev
}

func (r *realSched) after(d time.Duration, fn func()) canceller {
	ev := r.After(d, fn)
	return &ev
}

func (r *realSched) laneAt(lane int, t time.Duration, fn func()) canceller {
	ev := r.lanes[lane].At(r.Scheduler, t, fn)
	return &ev
}
func (r *realSched) timerInit(k int, fn func())        { r.timers[k].Init(r.Scheduler, fn) }
func (r *realSched) timerReset(k int, d time.Duration) { r.timers[k].Reset(d) }
func (r *realSched) timerStop(k int)                   { r.timers[k].Stop() }

func (r *realSched) nextAt() (time.Duration, bool) {
	if n := r.peek(); n != nil {
		return n.at, true
	}
	return 0, false
}

func (r *realSched) timerState(k int) (bool, time.Duration) {
	return r.timers[k].Armed(), r.timers[k].Deadline()
}

// refEvent is one pending callback of the reference scheduler.
type refEvent struct {
	r    *refSched
	at   time.Duration
	fn   func()
	done bool // fired or cancelled
}

// Cancel takes a pending event out of the queue.
func (e *refEvent) Cancel() {
	if e.done {
		return
	}
	e.done = true
	q := e.r.q
	for i := range q {
		if q[i] == e {
			e.r.q = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// refSched keeps every pending event, and nothing else, in one slice sorted
// by (at, scheduling order).
type refSched struct {
	now     time.Duration
	fired   uint64
	running bool
	q       []*refEvent
	timerFn [refTimers]func()
	timerEv [refTimers]*refEvent
}

func (r *refSched) Now() time.Duration { return r.now }
func (r *refSched) Fired() uint64      { return r.fired }
func (r *refSched) Stop()              { r.running = false }

func (r *refSched) Pending() int { return len(r.q) }

func (r *refSched) at(t time.Duration, fn func()) canceller { return r.schedule(t, fn) }

func (r *refSched) after(d time.Duration, fn func()) canceller {
	if d < 0 {
		d = 0
	}
	return r.schedule(r.now+d, fn)
}

func (r *refSched) laneAt(_ int, t time.Duration, fn func()) canceller { return r.schedule(t, fn) }

func (r *refSched) schedule(t time.Duration, fn func()) *refEvent {
	if t < r.now {
		panic("reference: scheduling in the past")
	}
	e := &refEvent{r: r, at: t, fn: fn}
	// The new event goes after every queued event with the same timestamp.
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > t })
	r.q = append(r.q, nil)
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = e
	return e
}

func (r *refSched) timerInit(k int, fn func()) { r.timerFn[k] = fn }

func (r *refSched) timerReset(k int, d time.Duration) {
	r.timerStop(k)
	r.timerEv[k] = r.after(d, r.timerFn[k]).(*refEvent)
}

func (r *refSched) timerStop(k int) {
	if e := r.timerEv[k]; e != nil {
		e.Cancel()
	}
}

func (r *refSched) timerState(k int) (bool, time.Duration) {
	if e := r.timerEv[k]; e != nil && !e.done {
		return true, e.at
	}
	return false, 0
}

func (r *refSched) next() *refEvent {
	if len(r.q) == 0 {
		return nil
	}
	return r.q[0]
}

func (r *refSched) nextAt() (time.Duration, bool) {
	e := r.next()
	if e == nil {
		return 0, false
	}
	return e.at, true
}

func (r *refSched) Step() bool {
	e := r.next()
	if e == nil {
		return false
	}
	r.q = r.q[1:]
	e.done = true
	r.now = e.at
	r.fired++
	e.fn()
	return true
}

func (r *refSched) RunUntil(deadline time.Duration) {
	r.running = true
	for r.running {
		e := r.next()
		if e == nil || e.at > deadline {
			break
		}
		r.Step()
	}
	r.running = false
	if e := r.next(); r.now < deadline && (e == nil || e.at > deadline) {
		r.now = deadline
	}
}

// fireRec is what a callback observes when it runs.
type fireRec struct {
	id  int
	now time.Duration
}

// world is one scheduler under test with the driver state that goes with it.
// The driver applies every operation to two worlds; whatever a callback does
// is fixed when the event is scheduled, so both worlds take the same
// decisions for as long as they fire the same events in the same order.
type world struct {
	s        schedAPI
	log      []fireRec
	handles  []canceller
	nextID   int
	laneLast [refLanes]time.Duration
	expired  [refTimers]int
}

func newWorld(s schedAPI) *world {
	w := &world{s: s}
	for k := 0; k < refTimers; k++ {
		k := k
		s.timerInit(k, func() {
			w.record(-1 - k)
			// Two expiries in three re-arm the timer from its own callback.
			if w.expired[k]++; w.expired[k]%3 != 0 {
				s.timerReset(k, time.Duration(k+1)*time.Millisecond)
			}
		})
	}
	return w
}

func (w *world) record(id int) {
	w.log = append(w.log, fireRec{id: id, now: w.s.Now()})
}

// event returns a callback that records itself and then does what (action,
// arg) says. A child's arg is half its parent's, so chains end.
func (w *world) event(action, arg byte) func() {
	id := w.nextID
	w.nextID++
	return func() {
		w.record(id)
		w.act(action, arg)
	}
}

func ms(b byte) time.Duration { return time.Duration(b) * time.Millisecond }

func (w *world) act(action, arg byte) {
	s := w.s
	switch action % 10 {
	case 0, 1, 2: // a leaf
	case 3:
		w.handles = append(w.handles, s.at(s.Now()+ms(arg%8), w.event(arg>>3, arg>>1)))
	case 4:
		w.handles = append(w.handles, s.after(ms(arg%8)-2*time.Millisecond, w.event(arg>>3, arg>>1)))
	case 5:
		w.handles = append(w.handles, w.laneInOrder(int(arg)%refLanes, ms(arg%4), arg>>3, arg>>1))
	case 6: // possibly before the lane's last event
		w.handles = append(w.handles, s.laneAt(int(arg)%refLanes, s.Now()+ms(arg%8), w.event(arg>>3, arg>>1)))
	case 7:
		s.timerReset(int(arg)%refTimers, ms(arg%16))
	case 8:
		s.timerStop(int(arg) % refTimers)
	case 9:
		if arg%4 == 0 {
			s.Stop()
		} else if len(w.handles) > 0 {
			w.handles[int(arg)%len(w.handles)].Cancel() // often stale
		}
	}
}

// laneInOrder schedules on a lane at or after everything scheduled there
// before, the way a serial resource hands out completion times.
func (w *world) laneInOrder(lane int, d time.Duration, action, arg byte) canceller {
	t := w.s.Now()
	if w.laneLast[lane] > t {
		t = w.laneLast[lane]
	}
	t += d
	w.laneLast[lane] = t
	return w.s.laneAt(lane, t, w.event(action, arg))
}

// laneBurst queues n events on a lane in order and returns their handles:
// the first is the lane's head if the lane was idle, the last its tail.
func (w *world) laneBurst(lane, n int, arg byte) []canceller {
	burst := make([]canceller, n)
	for i := range burst {
		burst[i] = w.laneInOrder(lane, ms(arg%4), arg>>3, arg>>1)
	}
	w.handles = append(w.handles, burst...)
	return burst
}

// timerVariant re-arms timer k relative to its armed deadline: to the same
// instant, later or earlier.
func (w *world) timerVariant(k int, arg byte) {
	s := w.s
	armed, deadline := s.timerState(k)
	if !armed {
		s.timerReset(k, ms(arg%16))
		return
	}
	d := deadline - s.Now()
	switch arg % 3 {
	case 1:
		d += ms(arg % 8)
	case 2:
		d -= ms(arg % 8) // may go negative: Reset clamps
	}
	s.timerReset(k, d)
}

// apply runs one top-level operation with operands a and b.
func (w *world) apply(op, a, b byte) {
	s := w.s
	switch op % 16 {
	case 0, 1:
		w.act(3, a) // At
	case 2:
		w.act(4, a) // After
	case 3, 4:
		w.act(5, a) // Lane.At in order
	case 5:
		w.act(6, a) // Lane.At out of order
	case 6:
		w.act(7, a) // Reset
	case 7:
		w.timerVariant(int(a)%refTimers, b)
	case 8:
		w.act(8, a) // Stop
	case 9:
		if len(w.handles) > 0 {
			w.handles[(int(a)<<8|int(b))%len(w.handles)].Cancel()
		}
	case 10:
		// More cancellations than the compaction threshold, around a timer
		// that is stopped and re-armed while the dead nodes pile up.
		k := int(a) % refTimers
		s.timerReset(k, time.Second)
		for i := 0; i < 80+int(b); i++ {
			s.at(s.Now()+time.Hour, w.event(0, 0)).Cancel()
			if i == 40 {
				s.timerStop(k)
			}
		}
		s.timerReset(k, time.Second+ms(b))
	case 11:
		for i := 0; i <= int(a)%4; i++ {
			s.Step()
		}
	case 12:
		s.RunUntil(s.Now() + ms(a%32))
	case 13:
		// A deadline that is exactly the next event's instant: the bound is
		// inclusive, so everything due then fires and nothing later does.
		if t, ok := s.nextAt(); ok {
			s.RunUntil(t)
		}
	case 14:
		// Cancel lane events where they wait: b picks any of the head of a
		// burst, a run in mid-chain and the tail, and the lane is then used
		// again, behind whatever is left of the chain.
		lane := int(a) % refLanes
		burst := w.laneBurst(lane, 6+int(a)%8, b)
		if b&1 != 0 {
			burst[0].Cancel()
		}
		if b&2 != 0 {
			burst[2].Cancel()
			burst[3].Cancel()
		}
		if b&4 != 0 {
			burst[len(burst)-1].Cancel()
		}
		if b&8 != 0 {
			for _, h := range burst {
				h.Cancel()
			}
		}
		w.laneBurst(lane, 1+int(b>>4)%3, a)
		// A cancelled tail's node goes to the next event on its lane; the
		// tail's own handle must not reach that event.
		if b&4 != 0 {
			burst[len(burst)-1].Cancel()
		}
	case 15:
		// Compaction over cancelled lane heads: each lane's chain must
		// survive its head being swept out of the heap, also when the
		// events right behind the head are cancelled too.
		for lane := 0; lane < refLanes; lane++ {
			burst := w.laneBurst(lane, 3+int(b)%3, a)
			burst[0].Cancel()
			if (int(b)>>uint(lane))&1 != 0 {
				burst[1].Cancel()
			}
		}
		for i := 0; i < 80+int(b); i++ {
			s.at(s.Now()+time.Hour, w.event(0, 0)).Cancel()
		}
		w.laneBurst(int(a)%refLanes, 2, b)
	}
}

// runDifferential drives both schedulers with the operations encoded in data
// and fails on the first observable difference.
func runDifferential(t *testing.T, data []byte) {
	real, ref := newWorld(newRealSched()), newWorld(&refSched{})
	checked := 0
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		real.apply(op, a, b)
		ref.apply(op, a, b)
		if len(real.log) != len(ref.log) {
			t.Fatalf("op %d (%d): %d callbacks fired, reference %d", i/3, op%16, len(real.log), len(ref.log))
		}
		for ; checked < len(ref.log); checked++ {
			if real.log[checked] != ref.log[checked] {
				t.Fatalf("op %d (%d): callback %d saw %+v, reference %+v",
					i/3, op%16, checked, real.log[checked], ref.log[checked])
			}
		}
		if g, w := real.s.Now(), ref.s.Now(); g != w {
			t.Fatalf("op %d (%d): Now %v, reference %v", i/3, op%16, g, w)
		}
		if g, w := real.s.Fired(), ref.s.Fired(); g != w {
			t.Fatalf("op %d (%d): Fired %d, reference %d", i/3, op%16, g, w)
		}
		if g, w := real.s.Pending(), ref.s.Pending(); g != w {
			t.Fatalf("op %d (%d): Pending %d, reference %d", i/3, op%16, g, w)
		}
		gt, gok := real.s.nextAt()
		wt, wok := ref.s.nextAt()
		if gt != wt || gok != wok {
			t.Fatalf("op %d (%d): next event at %v %v, reference %v %v", i/3, op%16, gt, gok, wt, wok)
		}
		for k := 0; k < refTimers; k++ {
			ga, gd := real.s.timerState(k)
			wa, wd := ref.s.timerState(k)
			if ga != wa || gd != wd {
				t.Fatalf("op %d (%d): timer %d armed %v deadline %v, reference %v %v", i/3, op%16, k, ga, gd, wa, wd)
			}
		}
	}
}

func randomOps(seed int64, n int) []byte {
	data := make([]byte, 3*n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestSchedulerMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runDifferential(t, randomOps(seed, 3000))
	}
}

func FuzzSchedulerOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomOps(seed, 200))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		runDifferential(t, data)
	})
}
