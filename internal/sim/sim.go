// Package sim provides a deterministic discrete-event simulation engine.
//
// All HydraNet-FT components run on a single virtual clock owned by a
// Scheduler. Events execute in strict timestamp order; ties are broken by
// insertion order, so a run with a given seed and topology is exactly
// reproducible. The engine is intentionally single-threaded: protocol
// endpoints are event-driven state machines, not goroutines, which removes
// scheduling nondeterminism from measurements.
//
// The pending queue holds one entry per busy resource and armed timer, not
// one per event in flight: events queued behind a serial resource wait in a
// Lane and enter the queue one at a time — also a population of equal-length
// waits, such as a TCP stack's TIME-WAIT connections — and a Timer keeps a
// single entry however often it is re-armed. Every event still fires under
// the (time, sequence) key it was given when it was scheduled, so the firing
// order is that of a scheduler that queued each event on its own.
//
// The scheduler is allocation-free in steady state: event nodes live in
// fixed-size chunks, are recycled through a free list after they fire or are
// cancelled, and the queue is a 4-ary min-heap of pointer-free slots (key
// plus node id), so sifting never touches a node and never pays a GC write
// barrier. Handles returned by At and After are generation-checked values, so
// holding a handle past its event's lifetime is always safe: Cancel on a
// stale handle is a no-op even if the underlying node has been recycled for
// an unrelated event.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Nodes are allocated chunkSize at a time and never move, so node pointers
// (in handles, timers and lane chains) stay valid while heap slots name a
// node by its id: chunk index in the high bits, position in the low ones.
const (
	chunkBits = 7
	chunkSize = 1 << chunkBits
)

// eventNode is the scheduler-owned representation of a pending callback.
// Nodes are recycled through the scheduler's free list; gen increments on
// every recycle so stale Event handles cannot reach a new occupant.
type eventNode struct {
	h     Handler    // what fires; a *timerWake on a timer's wake-up node (nodeTimer)
	next  *eventNode // lane successor if nodeHasNext; free-list link once recycled
	s     *Scheduler
	at    time.Duration
	seq   uint64
	gen   uint64
	id    uint32
	flags uint8
}

const (
	nodeCancelled uint8 = 1 << iota // will not fire; awaits lazy removal from the heap or its lane
	nodeTimer                       // a timer's wake-up node
	nodeHasNext                     // next is the lane event queued behind this one
	nodeWaiting                     // chained behind its lane's heap entry, not in the heap itself
)

// slot is one heap entry: an event's ordering key and the id of its node.
type slot struct {
	at  time.Duration
	seq uint64
	id  uint32
}

// less orders slots by (timestamp, insertion sequence).
func (a *slot) less(b *slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (n *eventNode) slot() slot {
	return slot{at: n.at, seq: n.seq, id: n.id}
}

// Event is a handle to a scheduled callback. The callback runs exactly once
// unless the event is cancelled first. The zero Event is inert: Cancel is a
// no-op and Cancelled reports true.
type Event struct {
	n   *eventNode
	gen uint64
}

// live reports whether the handle still refers to a pending, uncancelled
// event.
func (e *Event) live() bool {
	return e != nil && e.n != nil && e.n.gen == e.gen && e.n.flags&nodeCancelled == 0
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op, even if the scheduler has recycled the
// underlying node for a different event.
func (e *Event) Cancel() {
	if !e.live() {
		return
	}
	n := e.n
	n.h = nil
	n.s.kill(n)
}

// Cancelled reports whether the event will no longer fire: it was cancelled,
// or it has already run.
func (e *Event) Cancelled() bool { return !e.live() }

// Scheduler owns the virtual clock and the pending-event queue.
type Scheduler struct {
	now     time.Duration
	heap    []slot
	chunks  []*[chunkSize]eventNode
	free    *eventNode // recycled nodes, chained through next
	dead    int        // cancelled nodes still sitting in heap (lazy deletion)
	waiting int        // lane events chained behind their lane's heap entry
	nextSeq uint64
	rng     rand.Rand
	fired   uint64
	running bool

	// The backing of heap and chunks while they are small, and the first
	// chunk itself: a fail-over scenario on a fresh network stays within
	// all three.
	heap0   [64]slot
	chunks0 [16]*[chunkSize]eventNode
	chunk0  [chunkSize]eventNode
}

// NewScheduler returns a scheduler with its clock at zero and a PRNG seeded
// with the given seed.
func NewScheduler(seed int64) *Scheduler { return new(Scheduler).Init(seed) }

// Init readies a zero Scheduler embedded by value in a larger struct, as
// NewScheduler would. It must not be copied afterwards: its node chunks and
// queue start inside it.
func (s *Scheduler) Init(seed int64) *Scheduler {
	s.rng = *rand.New(rand.NewSource(seed))
	s.heap, s.chunks = s.heap0[:0], s.chunks0[:0]
	return s
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic PRNG. All randomness in a
// simulation (loss decisions, jitter) must come from this source.
func (s *Scheduler) Rand() *rand.Rand { return &s.rng }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of live events waiting to fire, in the heap or
// behind a lane's head. Cancelled events awaiting lazy removal are not
// counted.
func (s *Scheduler) Pending() int { return len(s.heap) - s.dead + s.waiting }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would reorder causality.
func (s *Scheduler) At(t time.Duration, fn func()) Event { return s.at(t, handlerFunc(fn)) }

// at is At for a Handler.
func (s *Scheduler) at(t time.Duration, h Handler) Event {
	s.checkTime(t)
	n := s.alloc()
	n.at = t
	n.seq = s.stamp()
	n.h = h
	s.push(n.slot())
	return Event{n: n, gen: n.gen}
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

func (s *Scheduler) checkTime(t time.Duration) {
	if t < s.now {
		s.badTime(t)
	}
}

func (s *Scheduler) badTime(t time.Duration) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
}

// alloc takes a node off the free list. Its next link is left as it was:
// the field only means something on a node flagged nodeHasNext.
func (s *Scheduler) alloc() *eventNode {
	n := s.free
	if n == nil {
		n = s.grow()
	}
	s.free = n.next
	return n
}

// grow adds a chunk of nodes to the empty free list and returns its head. It
// stays out of line so that alloc, on every scheduling path, can be inlined.
//
//go:noinline
func (s *Scheduler) grow() *eventNode {
	c := &s.chunk0
	if len(s.chunks) > 0 {
		c = new([chunkSize]eventNode)
	}
	base := uint32(len(s.chunks)) << chunkBits
	s.chunks = append(s.chunks, c)
	for i := chunkSize - 1; i >= 0; i-- {
		n := &c[i]
		n.s, n.id, n.next = s, base+uint32(i), s.free
		s.free = n
	}
	return s.free
}

func (s *Scheduler) node(id uint32) *eventNode {
	return &s.chunks[id>>chunkBits][id&(chunkSize-1)]
}

// stamp consumes the sequence number of an event scheduled now. Every event
// is stamped at the moment it is scheduled — also one that waits in a lane, or
// a timer deadline that is only recorded — which is what keeps keys
// independent of how events reach the heap.
func (s *Scheduler) stamp() uint64 {
	seq := s.nextSeq
	s.nextSeq++
	return seq
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It returns false when the queue is empty.
func (s *Scheduler) Step() bool {
	return s.step(math.MaxInt64)
}

// step executes the earliest pending event if it is due at or before
// deadline, and reports whether it did.
func (s *Scheduler) step(deadline time.Duration) bool {
	var n *eventNode
	if len(s.heap) > 0 {
		n = s.node(s.heap[0].id)
	}
	if n == nil || n.flags&(nodeCancelled|nodeTimer) != 0 {
		// Anything but a plain live event at the root takes peek's loop.
		if n = s.peek(); n == nil {
			return false
		}
	}
	if n.at > deadline {
		return false
	}
	// Fill the root: with the lane's next live event if one waits behind n
	// (one sift, not a pop and a push), with the heap's last slot otherwise.
	var next *eventNode
	if n.flags&nodeHasNext != 0 {
		next = s.promote(n)
	}
	var e slot
	if next != nil {
		e = next.slot()
	} else {
		last := len(s.heap) - 1
		e = s.heap[last]
		s.heap = s.heap[:last]
	}
	if len(s.heap) > 0 {
		s.siftDown(0, e)
	}
	s.now = n.at
	s.fired++
	// Recycling first means a timer is already disarmed when its callback
	// runs, and the callback's own scheduling can reuse the node.
	h := n.h
	s.recycle(n)
	h.OnTimer()
	return true
}

// promote returns the first live event chained behind lane node n, which is
// leaving the heap, or nil if there is none; the caller gives it n's place.
// Cancelled events on the way never reach the heap: they are unchained and
// recycled here, as peek drops cancelled nodes off the top of the heap.
func (s *Scheduler) promote(n *eventNode) *eventNode {
	for n.flags&nodeHasNext != 0 {
		next := n.next
		if next.flags&nodeCancelled == 0 {
			next.flags &^= nodeWaiting
			s.waiting--
			return next
		}
		n.flags = n.flags&^nodeHasNext | next.flags&nodeHasNext
		n.next = next.next
		s.recycle(next)
	}
	return nil
}

// Run executes events until the queue drains.
func (s *Scheduler) Run() {
	s.running = true
	for s.running && s.Step() {
	}
	s.running = false
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued. If
// Stop ends the run while events at or before the deadline are still pending,
// the clock stays at the last event executed, so they can still run in order.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	s.running = true
	for s.running && s.step(deadline) {
	}
	s.running = false
	if n := s.peek(); s.now < deadline && (n == nil || n.at > deadline) {
		s.now = deadline
	}
}

// Stop makes a Run or RunUntil in progress return after the current event.
func (s *Scheduler) Stop() { s.running = false }

// peek returns the earliest live event's node, which is then the heap's
// root. On the way it drops cancelled nodes off the top of the heap (a lane's
// next live event takes a cancelled head's place) and moves a timer's wake-up
// that surfaced before the timer's recorded deadline down to that deadline's
// key. Neither is a simulation event: nothing fires, the clock and the Fired
// count stay put.
func (s *Scheduler) peek() *eventNode {
	for len(s.heap) > 0 {
		n := s.node(s.heap[0].id)
		if n.flags&nodeCancelled != 0 {
			if next := s.promote(n); next != nil {
				s.siftDown(0, next.slot())
			} else {
				s.popRoot()
			}
			s.dead--
			s.recycle(n)
			continue
		}
		if n.flags&nodeTimer != 0 {
			if t := n.timer(); t.seq != n.seq {
				n.at, n.seq = t.at, t.seq
				s.siftDown(0, n.slot())
				continue
			}
		}
		return n
	}
	return nil
}

// kill marks a live node cancelled; it is removed lazily. One waiting in a
// lane stops counting as pending at once and leaves the chain when the events
// ahead of it have gone.
func (s *Scheduler) kill(n *eventNode) {
	n.flags |= nodeCancelled
	if n.flags&nodeWaiting != 0 {
		s.waiting--
		return
	}
	s.dead++
	s.maybeCompact()
}

// recycle returns a node that has left the heap to the free list. The
// generation bump invalidates every outstanding handle to this occupancy,
// and a timer's wake-up node lets go of its timer.
func (s *Scheduler) recycle(n *eventNode) {
	if n.flags&nodeTimer != 0 {
		n.timer().n = nil
	}
	n.gen++
	n.h = nil
	n.flags = 0
	n.next = s.free
	s.free = n
}

// maybeCompact removes cancelled nodes in bulk once they dominate the heap,
// bounding memory when many far-future events are scheduled and cancelled
// before the clock reaches them.
func (s *Scheduler) maybeCompact() {
	if s.dead <= 64 || s.dead*2 <= len(s.heap) {
		return
	}
	live := s.heap[:0]
	for _, e := range s.heap {
		if n := s.node(e.id); n.flags&nodeCancelled != 0 {
			// A cancelled lane head hands its slot to the lane's next live
			// event.
			if next := s.promote(n); next != nil {
				live = append(live, next.slot())
			}
			s.recycle(n)
			continue
		}
		live = append(live, e)
	}
	s.heap = live
	s.dead = 0
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		s.siftDown(i, live[i])
	}
}

// The heap is 4-ary: the children of slot i are slots 4i+1 … 4i+4. Half the
// depth of a binary heap for the price of three extra comparisons per level
// on the way down, all within two cache lines of 24-byte slots.

// push adds e to the heap. Most events are later than everything queued, so
// the sift towards the root is only called when there is something to move.
func (s *Scheduler) push(e slot) {
	s.heap = append(s.heap, e)
	if i := len(s.heap) - 1; i > 0 && e.less(&s.heap[(i-1)>>2]) {
		s.siftUp(i, e)
	}
}

// siftUp moves e, stored at heap index i, up to its place among i's
// ancestors.
func (s *Scheduler) siftUp(i int, e slot) {
	h := s.heap
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.less(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// siftDown stores e at heap index i, whose previous content is dropped, and
// sinks it to its place among i's descendants.
func (s *Scheduler) siftDown(i int, e slot) {
	h := s.heap
	for {
		child := i<<2 + 1
		if child >= len(h) {
			break
		}
		end := child + 4
		if end > len(h) {
			end = len(h)
		}
		min := child
		for j := child + 1; j < end; j++ {
			if h[j].less(&h[min]) {
				min = j
			}
		}
		if !h[min].less(&e) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = e
}

// popRoot removes the heap root.
func (s *Scheduler) popRoot() {
	last := len(s.heap) - 1
	e := s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.siftDown(0, e)
	}
}

// Lane is a FIFO of events for one serial resource — a node's CPU, one
// direction of a link — whose completion times never decrease. Only the
// lane's earliest event occupies a heap slot; the others wait chained through
// their own nodes and enter the heap one at a time, each under the key it was
// given when it was scheduled. Within a lane, time order is scheduling order,
// so the events of all lanes fire exactly as if each had been scheduled with
// At, while the heap stays as small as the number of busy resources.
//
// An event cancelled while it waits stays chained, uncounted, until the events
// ahead of it have left the lane; the one behind it then moves up in its
// place, so a cancellation never fires anything and never costs a heap slot.
// A cancelled tail's node goes to the lane's next event, so reassembly timeouts
// that are nearly all cancelled hold two nodes, not one per datagram.
//
// The zero Lane is ready to use. A lane belongs to the scheduler its events
// are scheduled on, allocates nothing, and must not be copied while events
// wait in it.
type Lane struct {
	tail *eventNode // last event scheduled, still in the lane if its gen is gen
	gen  uint64
}

// At schedules fn on s at absolute virtual time t, like s.At. An event that
// would break the lane's order — t earlier than the last event still in the
// lane — is scheduled as an ordinary event instead and takes no part in the
// lane.
func (l *Lane) At(s *Scheduler, t time.Duration, fn func()) Event {
	return l.AtHandler(s, t, handlerFunc(fn))
}

// AtHandler is Lane.At for a Handler: a record that is its own event needs
// no closure to be scheduled.
func (l *Lane) AtHandler(s *Scheduler, t time.Duration, h Handler) Event {
	tail := l.tail
	busy := tail != nil && tail.gen == l.gen
	if busy && t < tail.at {
		return s.at(t, h)
	}
	s.checkTime(t)
	if busy && tail.flags == nodeCancelled|nodeWaiting {
		// The new event takes the node of a cancelled one waiting where it
		// would be chained, under a new generation: the old handle is inert.
		tail.gen++
		tail.at, tail.seq, tail.h, tail.flags = t, s.stamp(), h, nodeWaiting
		s.waiting++
		l.gen = tail.gen
		return Event{n: tail, gen: tail.gen}
	}
	n := s.alloc()
	n.at = t
	n.seq = s.stamp()
	n.h = h
	l.tail, l.gen = n, n.gen
	if busy {
		tail.next = n
		tail.flags |= nodeHasNext
		n.flags = nodeWaiting
		s.waiting++
	} else {
		s.push(n.slot())
	}
	return Event{n: n, gen: n.gen}
}

// Timer is a restartable one-shot timer bound to a scheduler, in the style
// of kernel protocol timers (retransmission, delayed-ACK, keepalive).
//
// A timer holds at most one heap node, its wake-up. Re-arming to a deadline
// at or after the wake-up only records the deadline, together with the
// sequence number an event scheduled at that moment would have received; when
// the wake-up surfaces early the scheduler moves it to the recorded key (see
// peek), so the timer fires at exactly the point in the event order where a
// freshly scheduled event would have. A Timer may be embedded by value (see
// Init) but must not be copied once armed.
type Timer struct {
	s *Scheduler
	h Handler
	n *eventNode // wake-up node in the heap; cancelled while the timer is stopped

	// Key of the armed deadline.
	at  time.Duration
	seq uint64
}

// NewTimer returns a stopped timer that runs fn when it expires.
func NewTimer(s *Scheduler, fn func()) *Timer {
	t := new(Timer)
	t.Init(s, fn)
	return t
}

// Init binds a zero Timer to its scheduler and callback, for timers embedded
// by value in a larger struct.
func (t *Timer) Init(s *Scheduler, fn func()) { t.InitHandler(s, handlerFunc(fn)) }

// Handler is a scheduled callback that needs no closure: every event node
// holds one, whether it was scheduled with At, Lane.AtHandler or a timer. A
// struct that embeds several timers, or is itself scheduled for several
// reasons, gives each a handler by converting its own pointer to a named type
// with an OnTimer method — a conversion that allocates nothing, where a
// method value bound to the struct would allocate once per timer.
type Handler interface{ OnTimer() }

// handlerFunc adapts a plain callback; a func value is pointer-shaped, so the
// conversion to Handler does not allocate either. At, After and Lane.At
// schedule through it.
type handlerFunc func()

func (f handlerFunc) OnTimer() { f() }

// timerWake is the Handler of a timer's wake-up node: it fires the timer's
// own handler.
type timerWake Timer

func (w *timerWake) OnTimer() { (*Timer)(w).h.OnTimer() }

// timer returns the timer whose wake-up node n is (nodeTimer).
func (n *eventNode) timer() *Timer { return (*Timer)(n.h.(*timerWake)) }

// InitHandler is Init for a Handler.
func (t *Timer) InitHandler(s *Scheduler, h Handler) { t.s, t.h = s, h }

// Reset (re)arms the timer to fire d from now, superseding any earlier
// deadline.
func (t *Timer) Reset(d time.Duration) {
	s := t.s
	if d < 0 {
		d = 0
	}
	t.at = s.now + d
	t.seq = s.stamp()
	n := t.n
	if n != nil && t.at >= n.at {
		// The wake-up comes no later than the new deadline (a fresh sequence
		// number sorts after the node's at equal times): keep it, reviving
		// it if Stop had cancelled it.
		if n.flags&nodeCancelled != 0 {
			n.flags &^= nodeCancelled
			s.dead--
		}
		return
	}
	if n != nil {
		// Earlier than the wake-up: abandon the node to lazy deletion, as
		// a plain cancelled event that no longer names the timer.
		n.h, t.n = nil, nil
		n.flags &^= nodeTimer
		if n.flags&nodeCancelled == 0 {
			s.kill(n)
		}
	}
	n = s.alloc()
	n.at, n.seq = t.at, t.seq
	n.h, t.n = (*timerWake)(t), n
	n.flags = nodeTimer
	s.push(n.slot())
}

// Stop disarms the timer. Its wake-up node stays in the heap, cancelled, for
// a later Reset to revive or the scheduler to discard.
func (t *Timer) Stop() {
	if t.Armed() {
		t.s.kill(t.n)
	}
}

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.n != nil && t.n.flags&nodeCancelled == 0 }

// Deadline returns the virtual time the timer will fire at; valid only when
// Armed.
func (t *Timer) Deadline() time.Duration {
	if !t.Armed() {
		return 0
	}
	return t.at
}
