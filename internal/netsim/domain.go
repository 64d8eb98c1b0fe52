package netsim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hydranet/internal/frame"
	"hydranet/internal/obs"
	"hydranet/internal/sim"
)

// domainRT is the per-domain execution state of a partitioned network: a
// private scheduler and frame pool, an inbox of timestamped cross-domain
// frame hand-offs, and per-destination outboxes batching this domain's own
// hand-offs until the window barrier.
//
// Concurrency contract (enforced by the sim.Group phase structure and
// checked by the hydralint domainfence analyzer):
//
//   - During a window, a domain's worker touches only its own state plus
//     its outbox batches. Nothing here is shared.
//   - At the window edge the worker flushes each outbox batch into the
//     destination inbox under that inbox's mutex — the only lock on the
//     cross-domain path, taken once per (src,dst) pair per window.
//   - At the barrier the coordinator stages every inbox (StageHandoffs), and
//     at the next window start the destination drains the staged set only,
//     merges the entries in (arrive, birth, src) order, copies each frame
//     into its own pool and schedules delivery with the original birth, so
//     the event lands exactly where a single serial scheduler would have
//     placed it. Staging pins the drain to the window protocol: without it,
//     whether a destination sees a flush this cycle or next would depend on
//     how domains are strided across workers, and pool accounting sampled at
//     barriers would vary with the worker count.
//   - A handed-off frame buffer stays owned by the sender's pool. The
//     sender releases it two barriers later (sentNew → sentMid → released),
//     by which point the destination has long since taken its copy.
type domainRT struct {
	net   *Network
	id    int
	sched *sim.Scheduler
	pool  *frame.Pool
	bus   *obs.Bus // per-domain emission target (a view in parallel mode)

	inbox struct {
		mu      sync.Mutex
		entries []handoff
	}
	staged []handoff   // inbox entries published at the last barrier
	outbox [][]handoff // indexed by destination domain; worker-local

	sentNew []*frame.Buf  // hand-off buffers sent this window
	sentMid []*frame.Buf  // sent last window; destination has copied them
	evFree  []*frameEvent // recycled fabric event records (see frameEvent)

	handoffs  uint64   // frames handed across domains
	handoffTo []uint64 // frames handed to each destination domain
	ties      uint64   // ambiguous cross-domain merge ties (see MergeTies)
}

// handoff is one cross-domain frame in flight: it arrives on dst's
// interface ifindex at virtual time arrive, and was sent by an event in
// domain src executing at virtual time birth.
type handoff struct {
	arrive  time.Duration
	birth   time.Duration
	depth   uint64 // sender event's causal depth (0 unless profiling)
	src     int32
	ifindex int32
	node    *Node
	fb      *frame.Buf
}

// SetDomains partitions the network for conservative parallel execution:
// assign maps each node (by creation index) to a domain, and scheds[i] is
// domain i's scheduler (scheds[0] is conventionally the network's original
// scheduler, so single-domain state carries over). It returns the
// partition's lookahead: the minimum propagation delay over cross-domain
// links, which bounds how far any domain may run ahead of the others.
//
// Constraints: the topology must be final, no events may be pending on the
// base scheduler, and every cross-domain link needs a positive propagation
// delay — a zero-delay link provides no lookahead and must stay internal.
// With no cross-domain links at all the domains are fully independent and
// the returned lookahead is sim.KeyMax (callers cap their window size).
func (n *Network) SetDomains(assign []int, scheds []*sim.Scheduler) (time.Duration, error) {
	if n.doms != nil {
		return 0, fmt.Errorf("netsim: network already partitioned")
	}
	if len(assign) != len(n.nodes) {
		return 0, fmt.Errorf("netsim: partition covers %d of %d nodes", len(assign), len(n.nodes))
	}
	if len(scheds) < 1 {
		return 0, fmt.Errorf("netsim: partition needs at least one scheduler")
	}
	if n.sched.Pending() > 0 {
		return 0, fmt.Errorf("netsim: partition with %d events already pending", n.sched.Pending())
	}
	for i, d := range assign {
		if d < 0 || d >= len(scheds) {
			return 0, fmt.Errorf("netsim: node %q assigned to domain %d of %d", n.nodes[i].name, d, len(scheds))
		}
	}
	lookahead := time.Duration(sim.KeyMax)
	for _, l := range n.links {
		da, db := assign[l.ends[0].node.index], assign[l.ends[1].node.index]
		if da == db {
			continue
		}
		if l.cfg.Delay <= 0 {
			return 0, fmt.Errorf("netsim: cross-domain link %s-%s has no propagation delay (no lookahead)",
				l.ends[0].node.name, l.ends[1].node.name)
		}
		if l.cfg.Delay < lookahead {
			lookahead = l.cfg.Delay
		}
	}
	doms := make([]*domainRT, len(scheds))
	for i, s := range scheds {
		d := &domainRT{net: n, id: i, sched: s, pool: frame.NewPool(), bus: n.bus}
		d.outbox = make([][]handoff, len(scheds))
		d.handoffTo = make([]uint64, len(scheds))
		doms[i] = d
	}
	// Domain 0 inherits the base pool so buffers already handed out (none
	// in steady use before traffic, but tests may hold some) stay valid.
	doms[0].pool = n.pool
	for i, nd := range n.nodes {
		nd.dom = doms[assign[i]]
	}
	n.doms = doms
	return lookahead, nil
}

// Domains returns the number of domains (1 before SetDomains).
func (n *Network) Domains() int {
	if n.doms == nil {
		return 1
	}
	return len(n.doms)
}

// DomainOf returns the domain a node belongs to.
func (n *Network) DomainOf(nd *Node) int { return nd.dom.id }

// Handoffs returns the total number of frames handed across domains.
func (n *Network) Handoffs() uint64 {
	var total uint64
	for _, d := range n.doms {
		total += d.handoffs
	}
	return total
}

// HandoffMatrix fills dst — length Domains()² , indexed src*Domains()+to —
// with the cumulative cross-domain hand-off counts and reports whether the
// network is partitioned. Coordinator context only (a barrier or between
// runs): workers append hand-offs during windows, and the window WaitGroup
// orders those writes before any coordinator read.
func (n *Network) HandoffMatrix(dst []uint64) bool {
	if n.doms == nil {
		return false
	}
	k := len(n.doms)
	for _, d := range n.doms {
		for to, c := range d.handoffTo {
			dst[d.id*k+to] = c
		}
	}
	return true
}

// MergeTies returns how many cross-domain merge decisions were ambiguous:
// two hand-offs from different source domains carrying identical
// (arrive, birth) keys, where the serial tie-break (global insertion order)
// is not reconstructible from timestamps. Runs with zero ties are
// bit-identical to the serial scheduler; a nonzero count means the
// partition's outputs are still deterministic, but may order those specific
// simultaneous events differently than a serial run would.
func (n *Network) MergeTies() uint64 {
	var total uint64
	for _, d := range n.doms {
		total += d.ties
	}
	return total
}

// PoolOutstanding counts in-flight frame buffers net-wide, each logical
// frame exactly once: a handed-off frame is double-held for one window (the
// sender retains the original until its deferred release while the
// destination owns the copy), and subtracting the consumed generation
// (sentMid) removes exactly those duplicates. Serial networks report the
// plain pool occupancy, so the value is partition-invariant — a telemetry
// sampler reads the same gauge at the same virtual instant under any
// partition. Coordinator context (a barrier or between runs) only.
func (n *Network) PoolOutstanding() int {
	if n.doms == nil {
		return n.pool.Outstanding()
	}
	total := 0
	for _, d := range n.doms {
		total += d.pool.Outstanding() - len(d.sentMid)
	}
	return total
}

// PoolMisses sums cumulative allocation misses across domain pools. Unlike
// PoolOutstanding this is allocator telemetry, not a simulation observable:
// each domain pool warms its own free lists, so the sum depends on the
// partition (though not on the worker count).
func (n *Network) PoolMisses() uint64 {
	if n.doms == nil {
		_, _, misses := n.pool.Stats()
		return misses
	}
	var total uint64
	for _, d := range n.doms {
		_, _, misses := d.pool.Stats()
		total += misses
	}
	return total
}

// PendingHandoffs counts undelivered cross-domain hand-offs — frames a
// serial scheduler would hold as pending delivery events — wherever they sit
// in the pipeline (outbox, inbox, or staged). Coordinator context only.
func (n *Network) PendingHandoffs() int {
	total := 0
	for _, d := range n.doms {
		d.inbox.mu.Lock()
		total += len(d.inbox.entries)
		d.inbox.mu.Unlock()
		total += len(d.staged)
		for _, batch := range d.outbox {
			total += len(batch)
		}
	}
	return total
}

// StageHandoffs publishes every inbox flush to its destination's staging
// area. Coordinator context (every barrier, all workers parked): fixing the
// drained set here makes each window's deliveries a function of the window
// protocol alone, independent of how domains are strided across workers.
func (n *Network) StageHandoffs() {
	for _, d := range n.doms {
		in := &d.inbox
		in.mu.Lock()
		if len(in.entries) > 0 {
			d.staged = append(d.staged, in.entries...)
			for i := range in.entries {
				in.entries[i].fb = nil
				in.entries[i].node = nil
			}
			in.entries = in.entries[:0]
		}
		in.mu.Unlock()
	}
}

// WindowStart is the sim.Group window-start hook for domain id: release
// hand-off buffers the destinations have consumed, then drain, merge and
// schedule this domain's staged hand-offs. Runs in worker context.
func (n *Network) WindowStart(id int) {
	d := n.doms[id]
	for i, fb := range d.sentMid {
		fb.Release()
		d.sentMid[i] = nil
	}
	d.sentMid, d.sentNew = d.sentNew, d.sentMid[:0]

	entries := d.staged
	if len(entries) == 0 {
		return
	}
	// Stable sort on (arrive, birth, src): stability preserves per-source
	// send order, which equals the source domain's execution order — the
	// same FIFO tie-break the serial scheduler's sequence counter applies.
	sort.SliceStable(entries, func(i, j int) bool {
		a, b := &entries[i], &entries[j]
		if a.arrive != b.arrive {
			return a.arrive < b.arrive
		}
		if a.birth != b.birth {
			return a.birth < b.birth
		}
		return a.src < b.src
	})
	for i := range entries {
		e := &entries[i]
		if i > 0 {
			p := &entries[i-1]
			if p.arrive == e.arrive && p.birth == e.birth && p.src != e.src {
				d.ties++
			}
		}
		nb := d.pool.GetCopy(e.fb.Bytes())
		ar := d.getEvent(evArrive, nb)
		ar.node, ar.ifindex = e.node, int(e.ifindex)
		// AtBirthFrom carries the sender event's causal depth across the
		// domain boundary, so a profiled run's critical path matches the
		// chain a serial scheduler would have recorded.
		d.sched.AtBirthFrom(e.arrive, e.birth, e.depth, ar.fireFn)
		e.fb = nil
		e.node = nil
	}
	d.staged = d.staged[:0]
}

// WindowEnd is the sim.Group window-end hook for domain id: flush every
// non-empty outbox batch into its destination inbox, one lock acquisition
// per destination. Runs in worker context.
func (n *Network) WindowEnd(id int) {
	d := n.doms[id]
	for dst, batch := range d.outbox {
		if len(batch) == 0 {
			continue
		}
		t := n.doms[dst]
		t.inbox.mu.Lock()
		t.inbox.entries = append(t.inbox.entries, batch...)
		t.inbox.mu.Unlock()
		for i := range batch {
			batch[i].fb = nil
			batch[i].node = nil
		}
		d.outbox[dst] = batch[:0]
	}
}

// EarliestHandoff reports the smallest arrival time over every undelivered
// hand-off, for the Group's idle-window skip. Coordinator context (all
// workers parked), but the inbox locks are taken anyway so the race
// detector can verify the phase discipline.
func (n *Network) EarliestHandoff() (time.Duration, bool) {
	var best time.Duration
	ok := false
	for _, d := range n.doms {
		d.inbox.mu.Lock()
		for i := range d.inbox.entries {
			if t := d.inbox.entries[i].arrive; !ok || t < best {
				best, ok = t, true
			}
		}
		d.inbox.mu.Unlock()
		for i := range d.staged {
			if t := d.staged[i].arrive; !ok || t < best {
				best, ok = t, true
			}
		}
		// Outbox batches only hold frames sent from coordinator context
		// (setup code transmitting between runs); during a run every batch is
		// flushed before the coordinator looks.
		for _, batch := range d.outbox {
			for i := range batch {
				if t := batch[i].arrive; !ok || t < best {
					best, ok = t, true
				}
			}
		}
	}
	return best, ok
}

// Quiesce releases every hand-off buffer still held by the partition:
// consumed generations awaiting their deferred release, and unconsumed
// in-flight entries whose delivery window never ran (frames "on the wire"
// past a RunUntil deadline). Coordinator context only, with no further
// windows scheduled — after Quiesce, pool accounting matches a serial run
// that was cut off at the same instant. Safe to call repeatedly.
func (n *Network) Quiesce() {
	for _, d := range n.doms {
		d.inbox.mu.Lock()
		// Entries still in the inbox reference buffers that also sit in
		// their sender's sentNew list; dropping the entries here and
		// releasing via the sent lists below frees each buffer exactly once.
		for i := range d.inbox.entries {
			d.inbox.entries[i].fb = nil
			d.inbox.entries[i].node = nil
		}
		d.inbox.entries = d.inbox.entries[:0]
		d.inbox.mu.Unlock()
		for i := range d.staged {
			d.staged[i].fb = nil
			d.staged[i].node = nil
		}
		d.staged = d.staged[:0]
	}
	for _, d := range n.doms {
		for i, fb := range d.sentMid {
			fb.Release()
			d.sentMid[i] = nil
		}
		d.sentMid = d.sentMid[:0]
		for i, fb := range d.sentNew {
			fb.Release()
			d.sentNew[i] = nil
		}
		d.sentNew = d.sentNew[:0]
	}
}

// handoffFrame queues fb for delivery in the destination's domain. Called
// from Link.transmit in the sender's worker context; sd is the sender-side
// domain, which keeps ownership of fb until two barriers from now.
func (sd *domainRT) handoffFrame(arrive time.Duration, dst endpoint, fb *frame.Buf) {
	dd := dst.node.dom
	sd.outbox[dd.id] = append(sd.outbox[dd.id], handoff{
		arrive:  arrive,
		birth:   sd.sched.Now(),
		depth:   sd.sched.CurrentDepth(),
		src:     int32(sd.id),
		ifindex: int32(dst.ifindex),
		node:    dst.node,
		fb:      fb,
	})
	sd.sentNew = append(sd.sentNew, fb)
	sd.handoffs++
	sd.handoffTo[dd.id]++
}
