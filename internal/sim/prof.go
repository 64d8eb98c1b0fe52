package sim

import "time"

// Profiling support for the simulation core. SchedProf attaches to a
// Scheduler and tracks the causal structure of its event stream: every
// event's depth in the parent→child scheduling DAG (an event's parent is the
// event whose execution scheduled it), the maximum depth observed at fire
// time — the critical path — and a sampled ring of parent→child edges for
// inspection. The critical path bounds what any parallel execution of the
// scenario could gain: with unit event cost no schedule can finish in fewer
// steps than the longest causal chain, so fired / maxDepth is the scenario's
// ideal speedup.
//
// The collector is strictly passive and nil-gated on the hot paths: a
// detached scheduler pays a single pointer test and allocates nothing (pinned
// by TestProfZeroCostWhenDetached and the hydralint zeroalloc fence). An
// attached collector preallocates its ring, so the steady state stays
// allocation-free too.
//
// Depth bookkeeping: an event scheduled during another event's execution
// gets depth parent+1; an event scheduled from outside a run (set-up code
// between runs) roots a new chain at depth zero.

// ProfEdge is one sampled parent→child scheduling edge: ParentAt is the
// instant the executing event fired, ChildAt the instant the newly scheduled
// event is due, and Depth the child's causal depth.
type ProfEdge struct {
	ParentAt time.Duration
	ChildAt  time.Duration
	Depth    uint64
}

// SchedProf collects causal critical-path data for one Scheduler. Attach
// with Scheduler.EnableProfile and read it between runs.
type SchedProf struct {
	maxDepth uint64        // longest causal chain among fired events
	deepAt   time.Duration // virtual instant the deepest event fired
	every    uint64        // record every Nth scheduling edge
	seen     uint64        // edges considered for sampling
	recorded uint64        // edges recorded (may exceed the ring capacity)
	ring     []ProfEdge    // preallocated sample ring
	next     int           // ring write cursor
}

// NewSchedProf returns a collector whose edge ring holds ringCap samples,
// recording every everyth scheduling edge (minimums of 16 and 1 apply).
func NewSchedProf(ringCap, every int) *SchedProf {
	if ringCap < 16 {
		ringCap = 16
	}
	if every < 1 {
		every = 1
	}
	return &SchedProf{every: uint64(every), ring: make([]ProfEdge, 0, ringCap)}
}

// noteEdge is called on the scheduling hot path: count the edge and, every
// everyth time, overwrite the oldest ring slot. The ring is capacity-bounded
// and append never exceeds it, so steady state is allocation-free.
func (p *SchedProf) noteEdge(parentAt, childAt time.Duration, depth uint64) {
	p.seen++
	if p.seen%p.every != 0 {
		return
	}
	p.recorded++
	e := ProfEdge{ParentAt: parentAt, ChildAt: childAt, Depth: depth}
	if len(p.ring) < cap(p.ring) {
		p.ring = append(p.ring, e)
		return
	}
	p.ring[p.next] = e
	p.next++
	if p.next == len(p.ring) {
		p.next = 0
	}
}

// MaxDepth returns the longest causal chain among events fired so far.
// Cancelled events never contribute: depth is assigned at scheduling time
// but only folded into the maximum when the event actually fires, so a
// Timer.Reset orphaning thousands of deadlines cannot inflate the path.
func (p *SchedProf) MaxDepth() uint64 { return p.maxDepth }

// DeepestAt returns the virtual instant the deepest event fired.
func (p *SchedProf) DeepestAt() time.Duration { return p.deepAt }

// SampleEvery returns the edge sampling stride.
func (p *SchedProf) SampleEvery() uint64 { return p.every }

// EdgesSeen returns how many scheduling edges were considered.
func (p *SchedProf) EdgesSeen() uint64 { return p.seen }

// EdgesRecorded returns how many edges were written to the ring (the ring
// keeps only the most recent len(ring) of them).
func (p *SchedProf) EdgesRecorded() uint64 { return p.recorded }

// Edges appends the retained edge samples to dst in recording order
// (oldest first) and returns the extended slice.
func (p *SchedProf) Edges(dst []ProfEdge) []ProfEdge {
	if len(p.ring) < cap(p.ring) {
		return append(dst, p.ring...)
	}
	dst = append(dst, p.ring[p.next:]...)
	return append(dst, p.ring[:p.next]...)
}
