package ipv4

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"hydranet/internal/frame"
	"hydranet/internal/sim"
)

// ErrFragNeeded reports a datagram that needs fragmentation but carries the
// don't-fragment flag.
var ErrFragNeeded = errors.New("ipv4: fragmentation needed but DF set")

// cutFragments cuts the datagram b, which does not fit mtu, into fragments,
// each in its own frame from pool, and hands them to send in order. A
// fragment is b's first HeaderLen bytes, with its own length, offset,
// more-fragments flag and checksum, over its piece of the payload; options
// are not copied. If b is itself a fragment, its offset is the pieces' base
// and its last piece keeps its MF. A datagram with DontFrag set produces an
// error.
func cutFragments(pool *frame.Pool, b []byte, mtu int, send func(*frame.Buf)) error {
	frag := binary.BigEndian.Uint16(b[6:])
	if frag&flagDF != 0 {
		return fmt.Errorf("%w: datagram %d→%s", ErrFragNeeded, binary.BigEndian.Uint16(b[4:]), getAddr(b[16:20]))
	}
	chunk := (mtu - HeaderLen) &^ 7 // fragment payloads are 8-byte aligned
	if chunk <= 0 {
		return fmt.Errorf("ipv4: mtu %d too small to fragment", mtu)
	}
	off := int(frag&0x1fff) * 8
	for rest := b[int(b[0]&0x0f)*4:]; len(rest) > 0; {
		n, mf := min(chunk, len(rest)), uint16(flagMF)
		if n == len(rest) {
			mf = frag & flagMF // the last piece keeps the datagram's own MF
		}
		fb := pool.Get(HeaderLen + n)
		f := fb.Bytes()
		copy(f, b[:HeaderLen])
		copy(f[HeaderLen:], rest[:n])
		f[0] = 0x45 // version 4, IHL 5
		binary.BigEndian.PutUint16(f[2:], uint16(HeaderLen+n))
		binary.BigEndian.PutUint16(f[6:], uint16(off/8)|mf)
		f[10], f[11] = 0, 0
		binary.BigEndian.PutUint16(f[10:], headerChecksum(f))
		send(fb)
		rest, off = rest[n:], off+n
	}
	return nil
}

const (
	// ReassemblyTimeout is how long a partial datagram is held before its
	// fragments are discarded.
	ReassemblyTimeout = 30 * time.Second

	// maxReassemblies caps the partial datagrams one stack holds. A sender
	// that sprays first fragments under ever new IDs would otherwise pin a
	// buffer for each until its timeout; past the cap every new datagram
	// evicts the oldest. Fragments of one datagram arrive together, so
	// honest traffic holds a handful — one per flow whose fragments
	// interleave at this stack, plus those that lost a fragment inside the
	// last ReassemblyTimeout.
	maxReassemblies = 256

	// maxPayload is the most a datagram's payload can hold: TotalLen is a
	// 16-bit field that counts the header too.
	maxPayload = 0xffff - HeaderLen

	// reassemblyBufLen is a new entry's buffer: room for a tunnelled
	// full-MSS segment, so the common case never grows it.
	reassemblyBufLen = 2048
)

// fragKey names a datagram under reassembly: source, destination, protocol
// and identification (RFC 791).
type fragKey struct {
	src, dst Addr
	protoID  uint32 // proto<<16 | id: twelve bytes with no padding
}

func fragKeyOf(p *Packet) fragKey {
	return fragKey{src: p.Src, dst: p.Dst, protoID: uint32(p.Proto)<<16 | uint32(p.ID)}
}

func (k fragKey) compare(o fragKey) int {
	return cmp.Or(cmp.Compare(k.src, o.src), cmp.Compare(k.dst, o.dst), cmp.Compare(k.protoID, o.protoID))
}

// fragSpan is a run of payload bytes [off, end) that has arrived.
type fragSpan struct{ off, end int }

// Reassembly is one datagram being put together from its fragments and, once
// Add has returned it, the finished datagram. It is recycled: the byte
// buffer and the span list are kept from one datagram to the next. The
// buffer starts as the record's own buf0, so a record is one object.
//
// The buffer is the reassembler's own, not a frame.Pool frame: a partial
// datagram lives for up to ReassemblyTimeout, outside the fabric's
// get-send-release cycle, and pool traffic (misses, frames outstanding) is
// part of the recorded outputs.
type Reassembly struct {
	pkt Packet // the finished datagram; Payload is buf[:total]

	key     fragKey
	buf     []byte     // payload bytes at their offsets in the datagram
	high    int        // end of the highest byte written to buf
	total   int        // payload length, -1 until the last fragment has arrived
	spans   []fragSpan // what has arrived: ordered by offset, disjoint, not touching
	spans0  [4]fragSpan
	r       *Reassembler
	expires sim.Event

	// The pending list, oldest first — which is also expiry order, the
	// timeout being constant. next chains the free list too.
	prev, next *Reassembly

	buf0 [reassemblyBufLen]byte
}

// init readies a record of r's that has never been used.
func (e *Reassembly) init(r *Reassembler) *Reassembly {
	e.r, e.buf, e.spans = r, e.buf0[:], e.spans0[:0]
	return e
}

// OnTimer makes a pending datagram its own timeout's handler.
func (e *Reassembly) OnTimer() {
	e.r.Expired++
	e.r.discard(e)
}

// Packet returns the finished datagram. It and its payload are valid until
// the Reassembly is recycled.
func (d *Reassembly) Packet() *Packet { return &d.pkt }

// ReassemblyStats counts the datagrams a Reassembler gave up on.
type ReassemblyStats struct {
	// Expired counts partial datagrams discarded: held for
	// ReassemblyTimeout, or evicted before that (see Evicted).
	Expired uint64
	// Evicted counts, among Expired, those discarded oldest-first to make
	// room once maxReassemblies datagrams were pending.
	Evicted uint64
	// Oversize counts fragments that ended past the largest possible
	// datagram; each is dropped together with whatever its datagram had
	// collected.
	Oversize uint64
}

// Reassembler collects fragments and produces whole datagrams. It is
// per-stack state, driven by the stack's scheduler for timeouts.
type Reassembler struct {
	sched *sim.Scheduler
	// pending is sorted by key. Honest traffic holds a handful: the first
	// four rows live here, and so does the first record (first).
	pending  []*Reassembly
	pending0 [4]*Reassembly
	oldest   *Reassembly
	newest   *Reassembly
	free     *Reassembly
	// timeouts queues every pending datagram's expiry. They all wait
	// ReassemblyTimeout, so deadlines never decrease and only the earliest
	// holds a scheduler heap slot.
	timeouts sim.Lane
	first    Reassembly

	ReassemblyStats
}

// NewReassembler returns an empty reassembler.
func NewReassembler(sched *sim.Scheduler) *Reassembler { return new(Reassembler).Init(sched) }

// Init is NewReassembler for a Reassembler embedded by value, which must not
// be copied afterwards.
func (r *Reassembler) Init(sched *sim.Scheduler) *Reassembler {
	r.sched, r.pending, r.free = sched, r.pending0[:0], r.first.init(r)
	return r
}

// search returns where key is, or would go, in the pending table.
func (r *Reassembler) search(key fragKey) (int, bool) {
	return slices.BinarySearchFunc(r.pending, key, func(e *Reassembly, k fragKey) int { return e.key.compare(k) })
}

// Add ingests a fragment, copying its payload: p may alias a pooled frame
// that is recycled as soon as the delivery event returns. It returns nil
// while fragments are outstanding. The fragment that completes a datagram
// gets the datagram back; the caller owns it — a nested Add cannot disturb
// it — until it hands it to Recycle.
func (r *Reassembler) Add(p *Packet) *Reassembly {
	key := fragKeyOf(p)
	var e *Reassembly
	if i, ok := r.search(key); ok {
		e = r.pending[i]
	}
	end := p.FragOff + len(p.Payload)
	if end > maxPayload {
		if e != nil {
			r.discard(e)
		}
		r.Oversize++
		return nil
	}
	if e == nil {
		if len(r.pending) >= maxReassemblies {
			r.Expired++
			r.Evicted++
			r.discard(r.oldest)
		}
		e = r.start(key)
	}
	// Overlapping and duplicate fragments (retransmissions) overwrite.
	if end > len(e.buf) {
		e.grow(end)
	}
	copy(e.buf[p.FragOff:], p.Payload)
	if end > e.high {
		e.high = end
	}
	if !p.MoreFrag {
		e.total = end
	}
	if p.FragOff < end {
		e.cover(p.FragOff, end)
	}
	if !e.complete() {
		return nil
	}
	r.unlink(e)
	e.pkt = Packet{Header: p.Header, Payload: e.buf[:e.total]}
	e.pkt.FragOff = 0
	e.pkt.MoreFrag = false
	e.pkt.TotalLen = HeaderLen + e.total
	return e
}

// Recycle takes back a datagram Add returned once its handler is done with
// it; scribble (frame-poison mode) first overwrites packet and payload, so a
// handler that kept either reads garbage at once.
func (r *Reassembler) Recycle(d *Reassembly, scribble bool) {
	if scribble {
		d.pkt.Scribble()
		frame.Scribble(d.buf[:d.high])
	}
	d.next = r.free
	r.free = d
}

// start opens the reassembly of the datagram named key at the young end of
// the pending list and queues its timeout.
func (r *Reassembler) start(key fragKey) *Reassembly {
	e := r.free
	if e != nil {
		r.free = e.next
	} else {
		e = new(Reassembly).init(r)
	}
	e.key, e.high, e.total, e.spans = key, 0, -1, e.spans[:0]
	e.prev, e.next = r.newest, nil
	if r.newest != nil {
		r.newest.next = e
	} else {
		r.oldest = e
	}
	r.newest = e
	i, _ := r.search(key)
	r.pending = slices.Insert(r.pending, i, e)
	e.expires = r.timeouts.AtHandler(r.sched, r.sched.Now()+ReassemblyTimeout, e)
	return e
}

// unlink takes e out of the pending set: complete, or given up on.
func (r *Reassembler) unlink(e *Reassembly) {
	e.expires.Cancel()
	if i, ok := r.search(e.key); ok {
		r.pending = slices.Delete(r.pending, i, i+1)
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		r.oldest = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		r.newest = e.prev
	}
	e.prev, e.next = nil, nil
}

// discard drops a partial datagram.
func (r *Reassembler) discard(e *Reassembly) {
	r.unlink(e)
	r.Recycle(e, false)
}

// complete reports whether the last fragment has announced the datagram's
// length and every byte below it has arrived.
func (e *Reassembly) complete() bool {
	return e.total >= 0 && len(e.spans) > 0 && e.spans[0].off == 0 && e.spans[0].end >= e.total
}

// grow makes room for payload bytes up to end, keeping what has arrived.
func (e *Reassembly) grow(end int) {
	n := 2 * len(e.buf)
	if n < end {
		n = end
	}
	if n > maxPayload {
		n = maxPayload
	}
	buf := make([]byte, n)
	copy(buf, e.buf[:e.high])
	e.buf = buf
}

// cover records the arrival of [off, end), merging it with every span it
// overlaps or touches. Fragments mostly arrive in order, each extending the
// one span there is.
func (e *Reassembly) cover(off, end int) {
	s := e.spans
	i := 0
	for i < len(s) && s[i].end < off {
		i++
	}
	j := i
	for j < len(s) && s[j].off <= end {
		if s[j].off < off {
			off = s[j].off
		}
		if s[j].end > end {
			end = s[j].end
		}
		j++
	}
	if i == j {
		s = append(s, fragSpan{})
		copy(s[i+1:], s[i:])
	} else {
		s = append(s[:i+1], s[j:]...)
	}
	s[i] = fragSpan{off, end}
	e.spans = s
}
