package tcp

// fifo is a first-in-first-out queue whose live elements always form one
// contiguous slice of a single backing array, so readers get a plain []T
// and steady-state traffic allocates nothing.
//
// Layout: live = store[off : off+len(live)]. drop advances off; extend
// appends in place while the tail has room and otherwise slides the live
// elements to the front of the array. The array grows geometrically to at
// most twice the queue's maximum length; from then on a slide only happens
// once at least as many elements have been dropped as it copies, so the
// amortised cost is at most one copied element per element queued.
type fifo[T any] struct {
	store []T
	live  []T
}

// fifoMinStore is the smallest backing array a queue allocates.
const fifoMinStore = 512

// extend grows the queue by n elements and returns the new (stale-valued)
// tail for the caller to fill. max is the most elements the queue ever holds;
// the caller guarantees len(live)+n <= max.
func (q *fifo[T]) extend(n, max int) []T {
	need := len(q.live) + n
	if cap(q.live) < need {
		if len(q.store) < 2*need {
			size := 2 * len(q.store)
			if size < 2*need {
				size = 2 * need
			}
			if size < fifoMinStore {
				size = fifoMinStore
			}
			if size > 2*max {
				size = 2 * max
			}
			q.store = make([]T, size)
		}
		// copy handles the overlap when sliding within the same array.
		q.live = q.store[:copy(q.store, q.live)]
	}
	q.live = q.live[:need]
	return q.live[need-n:]
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

	// marking preserves application write boundaries: when set, each
	// append records the end of the write, and bytesFrom never returns a
	// chunk crossing a mark. This models the paper's measurement setup,
	// where batching of small segments was turned off so that every ttcp
	// write travels as its own segment.
	marking bool
	marks   fifo[Seq] // ends of writes, ascending; at most one per buffered byte
}

func newSendBuffer(capacity int) *sendBuffer {
	return &sendBuffer{cap: capacity}
}

// setBase initializes the starting sequence number (ISS+1).
func (b *sendBuffer) setBase(s Seq) { b.base = s }

// release frees the backing arrays of a connection that will send nothing
// more (one lingering in TIME-WAIT), dropping anything still buffered.
func (b *sendBuffer) release() {
	b.data, b.marks = fifo[byte]{}, fifo[Seq]{}
}

// append stores as much of p as fits and returns how many bytes it took.
//
//hydralint:zeroalloc
func (b *sendBuffer) append(p []byte) int {
	n := b.free()
	if n > len(p) {
		n = len(p)
	}
	if n <= 0 {
		return 0
	}
	copy(b.data.extend(n, b.cap), p)
	if b.marking {
		b.marks.extend(1, b.cap)[0] = b.endSeq()
	}
	return n
}

// ackTo discards bytes below seq (they were acknowledged).
//
//hydralint:zeroalloc
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
//
//hydralint:zeroalloc
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

// oooRange is a received, not-yet-deposited run of bytes. data initially
// aliases the delivered segment's payload (which in turn aliases a pooled
// fabric frame). A range that outlives the delivery event is copied into a
// private buffer, own, which data then points into; own goes back to the
// receiver's spare list when the range is deposited.
type oooRange struct {
	seq  Seq
	data []byte
	own  []byte
}

// receiver tracks the inbound stream: out-of-order (and deposit-gated)
// ranges, the deposit cursor rcvNxt, and the app-readable socket buffer.
//
// In HydraNet-FT terms (paper Section 4.3), "depositing byte k into the
// socket buffer" is the transition from pending to deposited: the ACK
// number a replica advertises is exactly rcvNxt, so gating deposits gates
// acknowledgments.
type receiver struct {
	rcvNxt    Seq        // next byte to deposit == ACK number we advertise
	pending   []oooRange // ascending seq; equal seqs in arrival order
	deposited fifo[byte]
	spare     [][]byte // private buffers of deposited ranges, for privatize
	cap       int
	finSeq    Seq // sequence number of a received FIN, valid if finSet
	finSet    bool
}

func newReceiver(capacity int) *receiver {
	return &receiver{cap: capacity}
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

// insert stores segment data for later deposit, trimming anything already
// below rcvNxt. Overlapping ranges are kept as-is (deposit handles overlap).
// It reports whether any byte of the segment was new (at or above rcvNxt and
// not wholly duplicate).
//
//hydralint:zeroalloc
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
	if off := seq.Diff(r.rcvNxt); off > r.cap {
		return false
	}
	// Check whether fully covered by existing pending ranges.
	covered := false
	for _, rg := range r.pending {
		if rg.seq.LEQ(seq) && rg.seq.Add(len(rg.data)).GEQ(seq.Add(len(data))) {
			covered = true
			break
		}
	}
	// Keep pending sorted: the new range goes after every range that does
	// not start above it. In-order arrivals land at the tail at once.
	i := len(r.pending)
	for i > 0 && seq.LT(r.pending[i-1].seq) {
		i--
	}
	r.pending = append(r.pending, oooRange{})
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = oooRange{seq: seq, data: data}
	return !covered
}

// privatize copies every pending range that still aliases the arriving
// frame's payload. It runs once per segment arrival, after all synchronous
// processing: the common case — an in-order segment deposited in the same
// event — never pays for a copy, only out-of-order and deposit-gated
// (ft-TCP) ranges that genuinely outlive the frame do.
func (r *receiver) privatize() {
	for i := range r.pending {
		if rg := &r.pending[i]; rg.own == nil {
			rg.own = r.spareBuf(len(rg.data))
			rg.data = rg.own[:copy(rg.own, rg.data)]
		}
	}
}

// spareBuf returns a buffer of at least n bytes: the most recently freed
// one if it is large enough, else a new one (rounded up so that a stream of
// similar-sized segments keeps reusing the same buffers).
func (r *receiver) spareBuf(n int) []byte {
	if k := len(r.spare); k > 0 {
		b := r.spare[k-1]
		r.spare[k-1] = nil
		r.spare = r.spare[:k-1]
		if cap(b) >= n {
			return b[:cap(b)]
		}
	}
	size := 64
	for size < n {
		size *= 2
	}
	return make([]byte, size)
}

// contiguousEnd returns the highest sequence number reachable from rcvNxt
// through pending ranges without a hole.
func (r *receiver) contiguousEnd() Seq {
	end := r.rcvNxt
	for _, rg := range r.pending {
		if rg.seq.GT(end) {
			break
		}
		if e := rg.seq.Add(len(rg.data)); e.GT(end) {
			end = e
		}
	}
	return end
}

// depositUpTo moves contiguous pending bytes in [rcvNxt, limit) into the
// socket buffer, bounded by buffer capacity. It returns the number of bytes
// deposited. Passing rcvNxt.Add(cap+1) or more effectively means "no limit".
//
//hydralint:zeroalloc
func (r *receiver) depositUpTo(limit Seq) int {
	end := r.contiguousEnd()
	if limit.LT(end) {
		end = limit
	}
	want := end.Diff(r.rcvNxt)
	if want <= 0 {
		return 0
	}
	if room := r.cap - r.readable(); want > room {
		want = room
	}
	if want <= 0 {
		return 0
	}
	out := r.deposited.extend(want, r.cap)
	target := r.rcvNxt.Add(want)
	for _, rg := range r.pending {
		// Copy the overlap of rg with [rcvNxt, target).
		start := MaxSeq(rg.seq, r.rcvNxt)
		stop := MinSeq(rg.seq.Add(len(rg.data)), target)
		if stop.LEQ(start) {
			continue
		}
		srcOff := start.Diff(rg.seq)
		dstOff := start.Diff(r.rcvNxt)
		n := stop.Diff(start)
		copy(out[dstOff:dstOff+n], rg.data[srcOff:srcOff+n])
	}
	r.rcvNxt = target
	// Drop pending ranges now wholly below rcvNxt; trim partial ones.
	kept := r.pending[:0]
	for _, rg := range r.pending {
		e := rg.seq.Add(len(rg.data))
		if e.LEQ(r.rcvNxt) {
			if rg.own != nil {
				r.spare = append(r.spare, rg.own)
			}
			continue
		}
		if rg.seq.LT(r.rcvNxt) {
			cut := r.rcvNxt.Diff(rg.seq)
			rg.data = rg.data[cut:]
			rg.seq = r.rcvNxt
		}
		kept = append(kept, rg)
	}
	for i := len(kept); i < len(r.pending); i++ {
		r.pending[i] = oooRange{} // drop references to deposited buffers
	}
	r.pending = kept
	return want
}

// read drains up to len(p) deposited bytes into p.
//
//hydralint:zeroalloc
func (r *receiver) read(p []byte) int {
	n := copy(p, r.deposited.live)
	r.deposited.drop(n)
	return n
}

// readable returns the number of deposited, unread bytes.
func (r *receiver) readable() int { return len(r.deposited.live) }

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

// consumeFIN advances rcvNxt over the FIN.
func (r *receiver) consumeFIN() {
	r.rcvNxt = r.finSeq.Add(1)
	r.finSet = false
}
