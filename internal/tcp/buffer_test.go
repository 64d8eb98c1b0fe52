package tcp

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hydranet/internal/frame"
)

func newTestPool() *bufPool { return &bufPool{frames: frame.NewPool()} }

func newSendBuffer(capacity int) *sendBuffer {
	b := new(sendBuffer)
	b.init(capacity, newTestPool())
	return b
}

func newReceiver(capacity int) *receiver {
	r := new(receiver)
	r.init(capacity, newTestPool())
	return r
}

func TestSendBufferAppendAckRead(t *testing.T) {
	b := newSendBuffer(10)
	b.setBase(100)
	if n := b.append([]byte("hello world!")); n != 10 {
		t.Fatalf("append took %d, want 10 (capacity)", n)
	}
	if got := b.bytesFrom(100, 5); string(got) != "hello" {
		t.Fatalf("bytesFrom(100) = %q", got)
	}
	if got := b.bytesFrom(105, 100); string(got) != " worl" {
		t.Fatalf("bytesFrom(105) = %q", got)
	}
	b.ackTo(105)
	if b.len() != 5 || b.free() != 5 {
		t.Fatalf("after ack len=%d free=%d", b.len(), b.free())
	}
	if got := b.bytesFrom(100, 5); got != nil {
		t.Fatal("acked bytes still readable")
	}
	if b.endSeq() != 110 {
		t.Fatalf("endSeq = %d, want 110", b.endSeq())
	}
}

func TestSendBufferAckBeyondIsClamped(t *testing.T) {
	b := newSendBuffer(10)
	b.setBase(0)
	b.append([]byte("abc"))
	b.ackTo(100) // nonsense ack far beyond; must not panic or corrupt
	if b.len() != 0 {
		t.Fatalf("len = %d, want 0", b.len())
	}
}

func TestSendBufferOldAckIgnored(t *testing.T) {
	b := newSendBuffer(10)
	b.setBase(100)
	b.append([]byte("abcde"))
	b.ackTo(99) // old ack below base
	if b.len() != 5 {
		t.Fatalf("old ack trimmed buffer: len=%d", b.len())
	}
}

func TestReceiverInOrderDeposit(t *testing.T) {
	r := newReceiver(100)
	r.setNext(1000)
	r.insert(1000, []byte("abc"))
	n := r.depositUpTo(Seq(1000).Add(1000))
	if n != 3 {
		t.Fatalf("deposited %d, want 3", n)
	}
	p := make([]byte, 10)
	if got := r.read(p); got != 3 || string(p[:3]) != "abc" {
		t.Fatalf("read %d %q", got, p[:got])
	}
	if r.rcvNxt != 1003 {
		t.Fatalf("rcvNxt = %d, want 1003", r.rcvNxt)
	}
}

func TestReceiverHoleBlocksDeposit(t *testing.T) {
	r := newReceiver(100)
	r.setNext(0)
	r.insert(5, []byte("later"))
	if n := r.depositUpTo(1000); n != 0 {
		t.Fatalf("deposited %d across a hole", n)
	}
	r.insert(0, []byte("early"))
	if n := r.depositUpTo(1000); n != 10 {
		t.Fatalf("deposited %d after filling hole, want 10", n)
	}
	p := make([]byte, 10)
	r.read(p)
	if string(p) != "earlylater" {
		t.Fatalf("stream = %q", p)
	}
}

func TestReceiverDepositGate(t *testing.T) {
	// The HydraNet-FT invariant: bytes at or above the gate stay pending.
	r := newReceiver(100)
	r.setNext(0)
	r.insert(0, []byte("0123456789"))
	if n := r.depositUpTo(4); n != 4 {
		t.Fatalf("gated deposit = %d, want 4", n)
	}
	if r.rcvNxt != 4 {
		t.Fatalf("rcvNxt = %d, want 4 (the ACK we may emit)", r.rcvNxt)
	}
	if n := r.depositUpTo(10); n != 6 {
		t.Fatalf("release deposited %d, want 6", n)
	}
	p := make([]byte, 16)
	n := r.read(p)
	if string(p[:n]) != "0123456789" {
		t.Fatalf("stream = %q", p[:n])
	}
}

func TestReceiverCapacityBoundsDeposit(t *testing.T) {
	r := newReceiver(4)
	r.setNext(0)
	r.insert(0, []byte("abcdefgh"))
	if n := r.depositUpTo(100); n != 4 {
		t.Fatalf("deposited %d, want 4 (socket buffer full)", n)
	}
	if w := r.window(); w != 0 {
		t.Fatalf("window = %d, want 0", w)
	}
	p := make([]byte, 2)
	r.read(p)
	if n := r.depositUpTo(100); n != 2 {
		t.Fatalf("deposited %d after partial read, want 2", n)
	}
}

func TestReceiverDuplicateAndOverlap(t *testing.T) {
	r := newReceiver(100)
	r.setNext(0)
	if isNew := r.insert(0, []byte("abcd")); !isNew {
		t.Fatal("fresh data reported as duplicate")
	}
	r.depositUpTo(100)
	if isNew := r.insert(0, []byte("abcd")); isNew {
		t.Fatal("fully old data reported as new")
	}
	// Overlapping: bytes 2..6 where 0..4 deposited: partially new.
	if isNew := r.insert(2, []byte("cdEF")); !isNew {
		t.Fatal("partially new data reported as duplicate")
	}
	r.depositUpTo(100)
	p := make([]byte, 10)
	n := r.read(p)
	if string(p[:n]) != "abcdEF" {
		t.Fatalf("stream = %q, want abcdEF", p[:n])
	}
}

func TestReceiverFIN(t *testing.T) {
	r := newReceiver(100)
	r.setNext(0)
	r.noteFIN(4)
	r.insert(0, []byte("data"))
	if r.finReady() {
		t.Fatal("FIN ready before data deposited")
	}
	r.depositUpTo(100)
	if !r.finReady() {
		t.Fatal("FIN not ready after deposit")
	}
	r.consumeFIN()
	if r.rcvNxt != 5 {
		t.Fatalf("rcvNxt = %d after FIN, want 5", r.rcvNxt)
	}
}

// Property: any segmentation of a stream, delivered in any order with
// duplicates, deposited under an arbitrary sequence of gates, reconstructs
// exactly the original stream. The socket buffer is mostly smaller than the
// stream: a segment beyond its reach is dropped and comes again in the next
// round, as the peer retransmits, and the array slides with bytes staged past
// the readable ones.
func TestReceiverPropertyStreamIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(streamLen uint16, baseRaw uint32, nGates uint8) bool {
		n := int(streamLen)%5000 + 1
		base := Seq(baseRaw)
		stream := make([]byte, n)
		rng.Read(stream)

		// Random segmentation.
		type segm struct {
			off, ln int
		}
		var segs []segm
		for off := 0; off < n; {
			ln := rng.Intn(1200) + 1
			if off+ln > n {
				ln = n - off
			}
			segs = append(segs, segm{off, ln})
			off += ln
		}
		// Shuffle and duplicate.
		order := rng.Perm(len(segs))
		var deliver []segm
		for _, i := range order {
			deliver = append(deliver, segs[i])
			if rng.Intn(4) == 0 {
				deliver = append(deliver, segs[i])
			}
		}

		r := newReceiver(rng.Intn(1200) + 300)
		r.setNext(base)
		var got []byte
		buf := make([]byte, 4096)
		deposit := func(limit Seq) {
			r.depositUpTo(limit)
			for {
				k := r.read(buf)
				if k == 0 {
					break
				}
				got = append(got, buf[:k]...)
			}
		}
		gateCount := int(nGates)%5 + 1
		for round := 0; r.rcvNxt != base.Add(n); round++ {
			if round > n {
				return false
			}
			for i, sg := range deliver {
				r.insert(base.Add(sg.off), stream[sg.off:sg.off+sg.ln])
				if i%maxInt(len(deliver)/gateCount, 1) == 0 {
					deposit(base.Add(rng.Intn(n + 1)))
				}
			}
			deposit(base.Add(n))
		}
		return bytes.Equal(got, stream)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReceiverWraparoundSequence(t *testing.T) {
	// Stream crossing the 2^32 boundary.
	r := newReceiver(100)
	base := Seq(0xfffffffa)
	r.setNext(base)
	r.insert(base, []byte("0123456789")) // crosses wrap
	if n := r.depositUpTo(base.Add(10)); n != 10 {
		t.Fatalf("deposited %d across wrap, want 10", n)
	}
	if r.rcvNxt != 4 {
		t.Fatalf("rcvNxt = %d, want 4 (wrapped)", uint32(r.rcvNxt))
	}
}

// --- Slide-in-place storage ------------------------------------------------

// TestFifoSlideAndGrowth walks a byte queue, which takes its 2×max array on
// first use, across slide boundaries: contents stay FIFO, the live slice stays
// contiguous, the array is 2×max from the first element on, and no further
// allocation happens. (The marks queue's geometric growth is
// TestSendBufferMarksAcrossSlide's.)
func TestFifoSlideAndGrowth(t *testing.T) {
	const max = 1000
	var q fifo[byte]
	pool := newTestPool()
	var model []byte
	next := byte(0)
	push := func(n int) {
		tail := q.extend(n, max, pool)
		for i := range tail {
			tail[i] = next
			model = append(model, next)
			next++
		}
	}
	pop := func(n int) {
		q.drop(n)
		model = model[n:]
	}
	check := func(step string) {
		t.Helper()
		if !bytes.Equal(q.live, model) {
			t.Fatalf("%s: queue holds %d bytes, model %d, or contents differ", step, len(q.live), len(model))
		}
		if len(q.store) != 2*max {
			t.Fatalf("%s: backing array is %d, want 2×max = %d", step, len(q.store), 2*max)
		}
	}
	cases := []struct {
		name      string
		push, pop int
	}{
		{"first allocation", 100, 0},
		{"append in place", 100, 50},
		{"append past the marks queue's first array", 700, 0},
		{"fill to max", 150, 0},
		{"drain most", 0, 990},
		{"tail exhausted: slide to front", 990, 0},
		{"drop everything: free slide", 0, 1000},
		{"restart at the front", 1000, 0},
		{"one byte out, one in at the very end", 1, 1},
	}
	for _, c := range cases {
		if c.push > 0 {
			push(c.push)
		}
		if c.pop > 0 {
			pop(c.pop)
		}
		check(c.name)
	}
	// Steady state: a full-window stream, any chunking, allocates nothing.
	rng := rand.New(rand.NewSource(3))
	allocs := testing.AllocsPerRun(200, func() {
		q.drop(rng.Intn(len(q.live)) + 1)
		q.extend(rng.Intn(max-len(q.live))+1, max, pool)
	})
	if allocs != 0 {
		t.Fatalf("steady-state extend/drop allocates %.1f times per round", allocs)
	}
	// So do the two socket buffers built on it: a segment's worth written,
	// sent and acknowledged; one received, deposited and read.
	snd, rcv := newSendBuffer(max), newReceiver(max)
	snd.setBase(0)
	rcv.setNext(0)
	seg, buf := make([]byte, 100), make([]byte, 100)
	var seq Seq
	allocs = testing.AllocsPerRun(200, func() {
		snd.append(seg)
		rcv.insert(seq, snd.bytesFrom(seq, len(seg)))
		seq = seq.Add(len(seg))
		snd.ackTo(seq)
		rcv.depositUpTo(seq)
		rcv.read(buf)
	})
	if allocs != 0 || rcv.rcvNxt != seq || snd.len() != 0 {
		t.Fatalf("steady-state socket buffers allocate %.1f times per segment (rcvNxt %d of %d, %d unacked)",
			allocs, rcv.rcvNxt, seq, snd.len())
	}
}

// TestSendBufferMarksAcrossSlide: write boundaries survive slides of both the
// byte array and the mark array, and chunk boundaries are exactly those of a
// linear scan over the marks (the pre-slide implementation).
func TestSendBufferMarksAcrossSlide(t *testing.T) {
	const capacity = 600 // small enough that 2×cap < fifoMinStore: slides come early
	b := newSendBuffer(capacity)
	b.marking = true
	base := Seq(0xffffff00) // sequence space wraps mid-test
	b.setBase(base)
	rng := rand.New(rand.NewSource(5))

	var stream []byte // every byte ever written
	var ends []int    // stream offsets of write ends
	acked := 0        // stream offset of b.base
	referenceChunk := func(off, maxLen int) []byte {
		if off < acked || off >= len(stream) {
			return nil
		}
		end := off + maxLen
		if end > len(stream) {
			end = len(stream)
		}
		for _, e := range ends {
			if e > off {
				if e < end {
					end = e
				}
				break
			}
		}
		return stream[off:end]
	}
	for round := 0; round < 4000; round++ {
		switch rng.Intn(3) {
		case 0, 1: // write
			p := make([]byte, rng.Intn(40)+1)
			rng.Read(p)
			n := b.append(p)
			if want := minInt(len(p), capacity-(len(stream)-acked)); n != want {
				t.Fatalf("round %d: append took %d, want %d", round, n, want)
			}
			if n > 0 {
				stream = append(stream, p[:n]...)
				ends = append(ends, len(stream))
			}
		case 2: // acknowledge part of the window, sometimes mid-write
			if len(stream) > acked {
				acked += rng.Intn(len(stream)-acked) + 1
				b.ackTo(base.Add(acked))
			}
		}
		if b.len() != len(stream)-acked || b.endSeq() != base.Add(len(stream)) {
			t.Fatalf("round %d: len %d endSeq %d, want %d %d", round, b.len(), b.endSeq(), len(stream)-acked, base.Add(len(stream)))
		}
		// Probe a few offsets, including below the window and at its end.
		for k := 0; k < 4; k++ {
			off := acked - 1 + rng.Intn(len(stream)-acked+2)
			maxLen := rng.Intn(100) + 1
			got := b.bytesFrom(base.Add(off), maxLen)
			if want := referenceChunk(off, maxLen); !bytes.Equal(got, want) {
				t.Fatalf("round %d: bytesFrom(+%d, %d) = %d bytes, reference %d bytes", round, off, maxLen, len(got), len(want))
			}
		}
	}
	if len(stream) < 10*capacity {
		t.Fatalf("only %d bytes streamed — the test never slid", len(stream))
	}
	if len(b.data.store) > 2*capacity || len(b.marks.store) > 2*capacity {
		t.Fatalf("backing arrays %d/%d exceed 2×cap", len(b.data.store), len(b.marks.store))
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestReceiverInsertOrderMatchesStableSort: insert-at-position keeps pending
// in exactly the order the old append + sort.SliceStable produced, for
// in-order, out-of-order, duplicate and overlapping arrivals.
func TestReceiverInsertOrderMatchesStableSort(t *testing.T) {
	type arrival struct {
		seq Seq
		len int
	}
	cases := []struct {
		name string
		in   []arrival
	}{
		{"in order", []arrival{{0, 10}, {10, 10}, {20, 10}}},
		{"reverse", []arrival{{20, 10}, {10, 10}, {0, 10}}},
		{"equal seq keeps arrival order", []arrival{{10, 5}, {10, 9}, {10, 2}, {0, 3}, {10, 7}}},
		{"overlapping", []arrival{{5, 20}, {0, 10}, {8, 4}, {5, 3}, {30, 1}, {0, 40}}},
		{"late arrival lands before the head", []arrival{{100, 4}, {50, 2}, {50, 8}, {0, 1}}},
	}
	rng := rand.New(rand.NewSource(11))
	var random []arrival
	for i := 0; i < 300; i++ {
		random = append(random, arrival{Seq(rng.Intn(64)), rng.Intn(16) + 1})
	}
	cases = append(cases, struct {
		name string
		in   []arrival
	}{"random", random})

	for _, c := range cases {
		base := Seq(0xfffffff0) // wraps inside the window
		r := newReceiver(1 << 16)
		r.setNext(base)
		var ref []oooRange
		for _, a := range c.in {
			r.insert(base.Add(int(a.seq)), make([]byte, a.len))
			// The old implementation: append, then stable-sort the whole list.
			ref = append(ref, oooRange{seq: base.Add(int(a.seq)), n: a.len})
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].seq.LT(ref[j].seq) })
		}
		if len(r.pending) != len(ref) {
			t.Fatalf("%s: %d pending ranges, reference %d", c.name, len(r.pending), len(ref))
		}
		for i := range ref {
			if got, want := r.pending[i], ref[i]; got != want {
				t.Fatalf("%s: pending[%d] = seq %d len %d, reference seq %d len %d",
					c.name, i, got.seq, got.n, want.seq, want.n)
			}
		}
	}
}

// TestReceiverDepositInPlace: a received byte is copied once, to its stream
// position in the socket buffer's one array. Ranges held at the gate outlive
// their frame (scribbled as soon as insert returns) without a copy of their
// own, deposits and slides carry them across the array's boundaries, the
// array stays 2×cap, and no array ever goes back to the pool.
func TestReceiverDepositInPlace(t *testing.T) {
	const capacity = 700
	r := newReceiver(capacity)
	r.setNext(0)
	rng := rand.New(rand.NewSource(9))
	stream := make([]byte, 40*capacity)
	rng.Read(stream)
	var got []byte
	buf := make([]byte, 97)
	sent := 0
	for rounds := 0; len(got) < len(stream); rounds++ {
		if rounds > len(stream) {
			t.Fatalf("no progress: sent %d, read %d, rcvNxt %d, %d pending", sent, len(got), r.rcvNxt, len(r.pending))
		}
		// The gate trails the newest segment by one arrival, so every segment
		// outlives its "frame" before it is deposited.
		if sent < len(stream) && sent-len(got) < capacity {
			n := minInt(rng.Intn(120)+1, len(stream)-sent)
			frame := append([]byte(nil), stream[sent:sent+n]...)
			r.insert(Seq(sent), frame)
			r.depositUpTo(Seq(sent))
			for i := range frame {
				frame[i] = 0xDB // the frame is recycled
			}
			sent += n
		} else {
			r.depositUpTo(Seq(sent))
		}
		if k := r.read(buf[:rng.Intn(len(buf))+1]); k > 0 {
			got = append(got, buf[:k]...)
		}
		if r.readable() > capacity {
			t.Fatalf("socket buffer holds %d bytes, capacity %d", r.readable(), capacity)
		}
		if len(r.buf.store) != 2*capacity {
			t.Fatalf("socket buffer array is %d, want 2×cap = %d from the first segment on", len(r.buf.store), 2*capacity)
		}
	}
	if !bytes.Equal(got, stream) {
		t.Fatal("stream corrupted across slides")
	}
	for k, list := range r.pool.free {
		if len(list) != 0 {
			t.Fatalf("the pool holds %d arrays of %d bytes: the receiver outgrew or copied something", len(list), 1<<(k+minBufClass))
		}
	}
}

// TestReceiverHoldsGatedSegmentsInPlace: once a receiver has its array,
// holding eight full-size segments at the deposit gate — each scribbled as its
// frame is recycled — and then depositing and reading them allocates nothing:
// no copy of a held range and no growth of the pending list.
func TestReceiverHoldsGatedSegmentsInPlace(t *testing.T) {
	const mss, held, runs = 1460, 8, 20
	stream := pattern(held * mss)
	receivers := make([]*receiver, runs+1) // one for AllocsPerRun's warm-up
	for i := range receivers {
		r := newReceiver(held * mss)
		r.setNext(0)
		r.insert(0, stream[:1]) // its first array
		r.depositUpTo(1)
		r.read(make([]byte, 1))
		receivers[i] = r
	}
	frame, buf := make([]byte, mss), make([]byte, held*mss)
	next, intact := 0, true
	allocs := testing.AllocsPerRun(runs, func() {
		r := receivers[next]
		next++
		gate := r.rcvNxt
		for k := 0; k < held; k++ {
			copy(frame, stream[k*mss:])
			r.insert(gate.Add(k*mss), frame)
			r.depositUpTo(gate)
			for i := range frame {
				frame[i] = 0xDB
			}
		}
		r.depositUpTo(gate.Add(held * mss))
		intact = intact && r.read(buf) == len(buf) && bytes.Equal(buf, stream)
	})
	if !intact {
		t.Fatal("the held segments did not come out as they went in")
	}
	if allocs != 0 {
		t.Fatalf("holding %d gated segments and depositing them allocates %.1f objects, want 0", held, allocs)
	}
}

// TestReceiverArrayBound pins the receiver's memory bound. The window check
// admits a segment only if it starts inside the advertised window, so what a
// receiver holds, readable plus staged bytes, stays under cap plus one
// segment. A peer that sends at most cap bytes a segment never moves the
// connection's receive side off its first, 2×cap array. The test sends
// full-size segments from anywhere between one below the cursor and one past
// cap beyond it, so many land past the window. It holds them at a gate that
// trails, and reads slowly. Past that
// bound, a segment larger than cap, the array grows rather than drop bytes.
func TestReceiverArrayBound(t *testing.T) {
	for _, c := range []struct {
		capacity int
		bounded  bool
	}{{4096, true}, {1000, false}} {
		const mss = 1460
		e, cli, srv := establishedPair(t, Config{RecvBufSize: c.capacity})
		start := cli.RcvNxt()
		gate := &countingGate{deposit: start, send: cli.SndNxt().Add(1 << 20)}
		cli.hooks = gate
		stream := pattern(100 * c.capacity)
		rng := rand.New(rand.NewSource(4))
		var got []byte
		buf := make([]byte, c.capacity)
		for round := 0; len(got) < len(stream); round++ {
			if round > 100*len(stream) {
				t.Fatalf("capacity %d: no progress, %d of %d bytes read", c.capacity, len(got), len(stream))
			}
			// The scheduler never runs: what the client sends back waits on
			// the link, and each segment here is the only one in flight.
			next := cli.RcvNxt().Diff(start)
			off := max(next-mss+rng.Intn(c.capacity+3*mss), 0)
			if end := min(off+mss, len(stream)); off < end {
				e.deliverToClient(&Segment{SrcPort: srv.Local().Port, DstPort: cli.Local().Port,
					Flags: FlagACK, Seq: start.Add(off), Ack: cli.SndNxt(), Window: 32768, Payload: stream[off:end]})
			}
			if rng.Intn(3) == 0 {
				if g := cli.rcv.contiguousEnd().Add(-rng.Intn(mss)); g.GT(gate.deposit) {
					gate.deposit = g
				}
				cli.Poke()
			}
			if rng.Intn(3) == 0 {
				n := cli.Read(buf[:rng.Intn(len(buf))+1])
				got = append(got, buf[:n]...)
			}
			if n := len(cli.rcv.buf.store); c.bounded && n != 0 && n != 2*c.capacity {
				t.Fatalf("capacity %d: the array is %d bytes after %d bytes read, want 2×cap", c.capacity, n, len(got))
			}
		}
		if !bytes.Equal(got, stream) {
			t.Fatalf("capacity %d: the stream came out changed", c.capacity)
		}
		if n := len(cli.rcv.buf.store); !c.bounded && n <= 2*c.capacity {
			t.Fatalf("capacity %d below a segment: the array is %d bytes, never past 2×cap", c.capacity, n)
		}
	}
}

// TestBufPoolClasses: an array comes back to the request size that produced
// it whatever that size was, never to a larger one; what the pool did not
// hand out it does not take in.
func TestBufPoolClasses(t *testing.T) {
	p := newTestPool()
	for _, size := range []int{1, 64, 65, 512, 1000, 1024, 2000, 32768, 1 << maxBufClass} {
		b := p.get(size)
		class := 1 << minBufClass
		for class < size {
			class *= 2
		}
		if len(b) != size || cap(b) != class {
			t.Fatalf("get(%d) returned len %d cap %d, want cap %d", size, len(b), cap(b), class)
		}
		b[0], b[size-1] = 0xAA, 0xBB
		p.put(b)
		again := p.get(size)
		if &again[0] != &b[0] {
			t.Errorf("get(%d) after put allocated a new array", size)
		}
		if larger := p.get(2 * cap(b)); len(larger) > 0 && &larger[0] == &b[0] {
			t.Errorf("a %d-byte array served a request for %d", cap(b), 2*cap(b))
		}
	}
	p = newTestPool()
	p.put(nil)
	p.put(make([]byte, 100))               // not a power of two: not ours
	p.put(make([]byte, 2<<maxBufClass))    // too large to keep
	p.put(p.get(1<<maxBufClass + 1)[:100]) // get does not pool this size either
	for k, list := range p.free {
		if len(list) != 0 {
			t.Errorf("class %d holds %d foreign arrays", k+minBufClass, len(list))
		}
	}
}

// TestBufPoolPoison: in frame-pool poison mode, on in every test, an array
// is scribbled on its way back, so a slice that outlived its buffer reads
// 0xDB.
func TestBufPoolPoison(t *testing.T) {
	p := newTestPool()
	b := newSendBuffer(4096)
	b.pool = p
	b.setBase(0)
	b.append([]byte("still referenced after release"))
	stale := b.bytesFrom(0, 5)
	b.release()
	if want := []byte{0xDB, 0xDB, 0xDB, 0xDB, 0xDB}; !bytes.Equal(stale, want) {
		t.Fatalf("stale slice reads %q after release under poison, want 0xDB bytes", stale)
	}
	if b.len() != 0 || b.free() != 4096 || b.bytesFrom(0, 5) != nil {
		t.Fatal("released send buffer is not empty")
	}
}

// TestBufPoolPoisonFillsWholeArray: a returned array is scribbled to its
// capacity, not just its length, the largest class included.
func TestBufPoolPoisonFillsWholeArray(t *testing.T) {
	p := newTestPool()
	for _, size := range []int{1, 32 << 10} {
		b := p.get(size)
		full := b[:cap(b)]
		for i := range full {
			full[i] = 0xAA
		}
		p.put(b)
		if n := bytes.Count(full, []byte{0xDB}); n != len(full) {
			t.Fatalf("get(%d): %d of %d bytes read 0xDB once put back", size, n, len(full))
		}
	}
}
