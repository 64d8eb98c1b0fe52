package tcp

import (
	"math/bits"

	"hydranet/internal/frame"
)

// bufPool is a stack's supply of socket-buffer backing arrays: LIFO free
// lists, one per power-of-two capacity. Connections draw their send and
// receive arrays from it and hand them back when they finish with them (or
// when a receiver outgrows its bound, below), so a stack that opens and
// closes connections at a steady rate allocates no buffer at all.
//
// Ownership: an array belongs to whoever took it until that owner puts it
// back, and put ends every claim on it — slices of a socket buffer (what
// bytesFrom returns, a receiver's live bytes) are only good until the owning
// connection next appends to, deposits into or releases that buffer. In
// frame-pool poison mode a returned array is scribbled, so a reader that
// outstays that sees 0xDB. A pool belongs to one stack and is never shared:
// Nets run on several goroutines (testbed.RunExperiment). Sharing one pool
// among the stacks of one Net would save nothing either: the client's and the
// replicas' arrays are live at the same time, so none could serve twice, and
// the one pool's longer free lists outgrow their inline backing. The
// benchmark's failover_sweep (seed 1, one Net a scenario) measured 0.008548 M
// objects a repetition with a pool per Net against 0.0084525 with one per
// stack. A fresh Net's connections each take their two arrays anew; only a
// Net that is reset and reused would keep them.
type bufPool struct {
	free   [bufClasses][][]byte
	free0  [bufClasses][2][]byte // each list's backing while it holds at most two
	frames *frame.Pool           // whose poison mode this pool follows
}

// Arrays of 1<<minBufClass … 1<<maxBufClass bytes are pooled; larger ones
// (socket buffers beyond 512 KiB) are left to the collector.
const (
	minBufClass = 6
	maxBufClass = 20
	bufClasses  = maxBufClass - minBufClass + 1
)

// get returns an array of length size. Its capacity is size rounded up to the
// next power of two, so it finds its way back to the list it came from.
func (p *bufPool) get(size int) []byte {
	k := minBufClass
	if size > 1<<minBufClass {
		k = bits.Len(uint(size - 1))
	}
	if k > maxBufClass {
		return make([]byte, size)
	}
	list := &p.free[k-minBufClass]
	if n := len(*list); n > 0 {
		b := (*list)[n-1]
		(*list)[n-1] = nil
		*list = (*list)[:n-1]
		return b[:size]
	}
	return make([]byte, size, 1<<k)
}

// put takes back an array obtained from get. Anything else — the nil array
// of a queue that never grew, one too large to pool — is dropped.
func (p *bufPool) put(b []byte) {
	k := bits.Len(uint(cap(b))) - 1
	if k < minBufClass || k > maxBufClass || cap(b) != 1<<k {
		return
	}
	b = b[:cap(b)]
	if p.frames.Poisoned() {
		frame.Scribble(b)
	}
	p.free[k-minBufClass] = append(p.free[k-minBufClass], b)
}

// first sizes a byte queue's first array: the whole 2×max at once. Growing
// through smaller arrays cost one pooled array per step and left the smaller
// ones idle in the pool.
func (*bufPool) first(max int) int { return 2 * max }

// markArrays is the array source of the one queue that does not pool: the
// write-boundary marks of a segment-per-write send buffer.
var markArrays arraySource[Seq] = heapSeqs{}

type heapSeqs struct{}

func (heapSeqs) get(size int) []Seq { return make([]Seq, size) }
func (heapSeqs) put([]Seq)          {}

// first sizes a marks queue's first array: marks are few next to bytes, so
// their queue starts small and grows geometrically.
func (heapSeqs) first(int) int { return fifoMinStore }

// arraySource is where a fifo gets its backing arrays: a *bufPool for bytes,
// markArrays for marks.
type arraySource[T any] interface {
	get(size int) []T
	put([]T)
	first(max int) int
}

// fifo is a first-in-first-out queue whose live elements always form one
// contiguous slice of a single backing array, so readers get a plain []T
// and steady-state traffic allocates nothing.
//
// Layout: live = store[off : off+len(live)]; a receiver also stages elements
// past the live ones, in live's capacity. drop advances off; extend appends
// in place while the tail has room and otherwise slides the live (and staged)
// elements to the front of the array. The array grows, in powers of two from
// its source's first size, to at most twice the queue's maximum length; from
// then on a slide only happens once at least as many elements have been
// dropped as it copies, so the amortised cost is at most one copied element
// per element queued. Only a receiver fed past its window needs more than
// that, and its array grows to fit.
type fifo[T any] struct {
	store []T
	live  []T
}

// fifoMinStore is the smallest backing array a marks queue allocates.
const fifoMinStore = 512

// extend grows the queue by n elements and returns the new (stale-valued)
// tail for the caller to fill. max is the most elements the queue ever holds;
// the caller guarantees len(live)+n <= max.
func (q *fifo[T]) extend(n, max int, src arraySource[T]) []T {
	need := len(q.live) + n
	q.reserve(need, len(q.live), max, src)
	q.live = q.live[:need]
	return q.live[need-n:]
}

// reserve makes cap(live) at least need, carrying the first keep elements
// from the head (keep >= len(live): a receiver's staged ones lie past its live
// ones) across a slide or into a larger array. A larger array, when one is
// needed, comes from src, and the outgrown one goes back there.
func (q *fifo[T]) reserve(need, keep, max int, src arraySource[T]) {
	if cap(q.live) >= need {
		return
	}
	old := q.store
	grow := len(old) < need || len(old) < 2*need && len(old) < 2*max
	if grow {
		size := src.first(max)
		for size < 2*need && size < 2*max {
			size *= 2
		}
		if size = min(size, 2*max); size < need {
			size = 2 * need // a receiver fed past its window
		}
		q.store = src.get(size)
	}
	// copy handles the overlap when sliding within the same array.
	q.live = q.store[:copy(q.store, q.live[:keep])][:len(q.live)]
	if grow {
		src.put(old)
	}
}

// release hands the backing array to src, dropping anything still queued.
func (q *fifo[T]) release(src arraySource[T]) {
	src.put(q.store)
	*q = fifo[T]{}
}

// drop removes the n oldest elements. An emptied queue restarts at the front
// of its array: a free slide.
func (q *fifo[T]) drop(n int) {
	if n == len(q.live) {
		q.live = q.store[:0]
		return
	}
	q.live = q.live[n:]
}

// sendBuffer holds the outbound byte stream: acknowledged bytes are trimmed
// from the front; the application appends at the back.
type sendBuffer struct {
	base Seq // sequence number of the first buffered byte
	data fifo[byte]
	cap  int
	pool *bufPool

	// marking preserves application write boundaries: when set, each
	// append records the end of the write, and bytesFrom never returns a
	// chunk crossing a mark. This models the paper's measurement setup,
	// where batching of small segments was turned off so that every ttcp
	// write travels as its own segment.
	marking bool
	marks   fifo[Seq] // ends of writes, ascending; at most one per buffered byte
}

func (b *sendBuffer) init(capacity int, pool *bufPool) {
	b.cap, b.pool = capacity, pool
}

// setBase initializes the starting sequence number (ISS+1).
func (b *sendBuffer) setBase(s Seq) { b.base = s }

// release gives up the backing arrays of a connection that will send nothing
// more (one entering TIME-WAIT, or terminated), dropping anything still
// buffered.
func (b *sendBuffer) release() {
	b.data.release(b.pool)
	b.marks = fifo[Seq]{}
}

// append stores as much of p as fits and returns how many bytes it took.
func (b *sendBuffer) append(p []byte) int {
	n := b.free()
	if n > len(p) {
		n = len(p)
	}
	if n <= 0 {
		return 0
	}
	copy(b.data.extend(n, b.cap, b.pool), p)
	if b.marking {
		b.marks.extend(1, b.cap, markArrays)[0] = b.endSeq()
	}
	return n
}

// ackTo discards bytes below seq (they were acknowledged).
func (b *sendBuffer) ackTo(seq Seq) {
	d := seq.Diff(b.base)
	if d <= 0 {
		return
	}
	if d > b.len() {
		d = b.len()
	}
	b.data.drop(d)
	b.base = b.base.Add(d)
	acked := 0
	for acked < len(b.marks.live) && b.marks.live[acked].LEQ(b.base) {
		acked++
	}
	b.marks.drop(acked)
}

// bytesFrom returns up to maxLen bytes of the stream starting at seq, or nil
// if seq is outside the buffered range. With marking enabled the chunk never
// crosses a write boundary.
func (b *sendBuffer) bytesFrom(seq Seq, maxLen int) []byte {
	data := b.data.live
	off := seq.Diff(b.base)
	if off < 0 || off >= len(data) {
		return nil
	}
	end := off + maxLen
	if end > len(data) {
		end = len(data)
	}
	if b.marking {
		// The first mark above seq bounds the chunk. Marks ascend, and all
		// lie within one window of base, so offsets from base order them.
		marks := b.marks.live
		lo, hi := 0, len(marks)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if marks[mid].Diff(b.base) > off {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo < len(marks) {
			if boundary := marks[lo].Diff(b.base); boundary < end {
				end = boundary
			}
		}
	}
	return data[off:end]
}

// endSeq returns the sequence number one past the last buffered byte.
func (b *sendBuffer) endSeq() Seq { return b.base.Add(b.len()) }

func (b *sendBuffer) len() int  { return len(b.data.live) }
func (b *sendBuffer) free() int { return b.cap - b.len() }

// oooRange is a received, not-yet-deposited run of bytes (out of order, or
// held at the deposit gate). The bytes themselves already sit at their stream
// position in the receiver's array.
type oooRange struct {
	seq Seq
	n   int
}

// receiver tracks the inbound stream: out-of-order (and deposit-gated)
// ranges, the deposit cursor rcvNxt, and the app-readable socket buffer.
//
// Every received byte is copied once, straight to its stream position in one
// array: buf.live holds the deposited, unread bytes, and the byte at seq >=
// rcvNxt sits len(buf.live)+(seq−rcvNxt) past their start, in live's
// capacity. A deposit only moves the readable end forward; a slide or a
// larger array carries the staged bytes along with the readable ones. The
// window check (processData) keeps readable plus staged bytes under cap plus
// one segment, so for a peer that sends at most cap bytes a segment the 2×cap
// array never grows.
//
// In HydraNet-FT terms (paper Section 4.3), "depositing byte k into the
// socket buffer" is the transition from pending to deposited: the ACK
// number a replica advertises is exactly rcvNxt, so gating deposits gates
// acknowledgments.
type receiver struct {
	rcvNxt  Seq        // next byte to deposit == ACK number we advertise
	pending []oooRange // ascending seq; equal seqs in arrival order
	buf     fifo[byte]
	pool    *bufPool
	cap     int
	finSeq  Seq // sequence number of a received FIN, valid if finSet
	finSet  bool

	// pendingArr backs pending until more ranges wait at once than it holds:
	// in-order traffic keeps one, a gated replica one per segment in flight.
	pendingArr [8]oooRange
}

func (r *receiver) init(capacity int, pool *bufPool) {
	r.cap, r.pool = capacity, pool
	r.pending = r.pendingArr[:0]
}

// release gives up everything only an open connection needs: ranges that
// will never be deposited and, if the application has read all there is, the
// socket buffer. Unread bytes stay readable.
func (r *receiver) release() {
	r.pending = r.pendingArr[:0]
	if r.readable() == 0 {
		r.buf.release(r.pool)
	}
}

// setNext initializes the deposit cursor (peer ISS+1).
func (r *receiver) setNext(s Seq) { r.rcvNxt = s }

// window returns the receive window to advertise.
func (r *receiver) window() int {
	w := r.cap - r.readable()
	if w < 0 {
		return 0
	}
	return w
}

// insert stores segment data at its stream position for later deposit,
// trimming anything already below rcvNxt; a byte that arrives again overwrites
// its earlier copy. It reports whether any byte of the segment was new (at or
// above rcvNxt and not within one range already pending).
func (r *receiver) insert(seq Seq, data []byte) bool {
	if len(data) == 0 {
		return false
	}
	// Trim below rcvNxt.
	if d := r.rcvNxt.Diff(seq); d > 0 {
		if d >= len(data) {
			return false // entirely old
		}
		data = data[d:]
		seq = seq.Add(d)
	}
	// Reject if entirely beyond the window... the caller enforces windows;
	// here we only bound memory: drop data beyond cap past rcvNxt.
	off := seq.Diff(r.rcvNxt)
	if off > r.cap {
		return false
	}
	// Check whether fully covered by existing pending ranges, and find how
	// far past rcvNxt the array already holds staged bytes.
	covered, staged := false, 0
	for _, rg := range r.pending {
		end := rg.seq.Add(rg.n)
		if rg.seq.LEQ(seq) && end.GEQ(seq.Add(len(data))) {
			covered = true
		}
		staged = maxInt(staged, end.Diff(r.rcvNxt))
	}
	// Keep pending sorted: the new range goes after every range that does
	// not start above it. In-order arrivals land at the tail at once.
	i := len(r.pending)
	for i > 0 && seq.LT(r.pending[i-1].seq) {
		i--
	}
	r.pending = append(r.pending, oooRange{})
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = oooRange{seq: seq, n: len(data)}
	at := r.readable() + off
	r.buf.reserve(at+len(data), r.readable()+staged, r.cap, r.pool)
	copy(r.buf.live[at:at+len(data)], data)
	return !covered
}

// contiguousEnd returns the highest sequence number reachable from rcvNxt
// through pending ranges without a hole.
func (r *receiver) contiguousEnd() Seq {
	end := r.rcvNxt
	for _, rg := range r.pending {
		if rg.seq.GT(end) {
			break
		}
		if e := rg.seq.Add(rg.n); e.GT(end) {
			end = e
		}
	}
	return end
}

// depositUpTo moves contiguous pending bytes in [rcvNxt, limit) into the
// socket buffer, bounded by buffer capacity. It returns the number of bytes
// deposited. Passing rcvNxt.Add(cap+1) or more effectively means "no limit".
func (r *receiver) depositUpTo(limit Seq) int {
	end := r.contiguousEnd()
	if limit.LT(end) {
		end = limit
	}
	want := min(end.Diff(r.rcvNxt), r.cap-r.readable())
	if want <= 0 {
		return 0
	}
	// The bytes are in place already: the readable end moves over them.
	r.buf.live = r.buf.live[:r.readable()+want]
	r.rcvNxt = r.rcvNxt.Add(want)
	// Drop pending ranges now wholly below rcvNxt; trim partial ones.
	kept := r.pending[:0]
	for _, rg := range r.pending {
		if rg.seq.Add(rg.n).LEQ(r.rcvNxt) {
			continue
		}
		if rg.seq.LT(r.rcvNxt) {
			rg.n -= r.rcvNxt.Diff(rg.seq)
			rg.seq = r.rcvNxt
		}
		kept = append(kept, rg)
	}
	r.pending = kept
	return want
}

// read drains up to len(p) deposited bytes into p.
func (r *receiver) read(p []byte) int {
	n := copy(p, r.buf.live)
	if len(r.pending) > 0 {
		r.buf.live = r.buf.live[n:] // the staged bytes past them stay put
	} else {
		r.buf.drop(n)
	}
	return n
}

// readable returns the number of deposited, unread bytes.
func (r *receiver) readable() int { return len(r.buf.live) }

// noteFIN records the sequence number a FIN occupies. The FIN is consumed
// (acknowledged) only once all data before it has been deposited.
func (r *receiver) noteFIN(seq Seq) {
	r.finSeq = seq
	r.finSet = true
}

// finReady reports whether the FIN is the next thing to consume.
func (r *receiver) finReady() bool {
	return r.finSet && r.rcvNxt == r.finSeq
}

// consumeFIN advances rcvNxt over the FIN. Nothing follows a FIN: whatever
// a peer sent past it is dropped, not deposited.
func (r *receiver) consumeFIN() {
	r.rcvNxt = r.finSeq.Add(1)
	r.finSet = false
	r.pending = r.pending[:0]
}
