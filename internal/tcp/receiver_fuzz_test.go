package tcp

import (
	"bytes"
	"math/rand"
	"testing"
)

// refReceiver is the reference the receiver is checked against: the stream is
// a map from offset (past the initial cursor, unwrapped) to the byte last
// received there, the readable bytes a plain slice, and the ranges received
// and not yet wholly deposited a list for the duplicate test. No slides,
// pending order or window arithmetic in sequence space.
type refReceiver struct {
	cap      int
	next     int      // offset of rcvNxt
	held     []int16  // by offset: the byte received and not deposited, or -1
	ranges   [][2]int // received [start, end), for the covered test
	readable []byte
}

// insert mirrors receiver.insert: bytes below the cursor are trimmed, a range
// starting more than cap past it is dropped, and a range is new unless one
// range received before it spans it.
func (m *refReceiver) insert(off int, data []byte) bool {
	if d := m.next - off; d > 0 {
		if d >= len(data) {
			return false
		}
		off, data = off+d, data[d:]
	}
	if len(data) == 0 || off-m.next > m.cap {
		return false
	}
	end, covered := off+len(data), false
	for _, rg := range m.ranges {
		covered = covered || rg[0] <= off && rg[1] >= end
	}
	m.ranges = append(m.ranges, [2]int{off, end})
	for len(m.held) < end {
		m.held = append(m.held, -1)
	}
	for i, b := range data {
		m.held[off+i] = int16(b)
	}
	return !covered
}

// contiguous is the offset of the first byte at or past the cursor not held.
func (m *refReceiver) contiguous() int {
	end := m.next
	for end < len(m.held) && m.held[end] >= 0 {
		end++
	}
	return end
}

func (m *refReceiver) deposit(limit int) int {
	end := min(m.contiguous(), limit, m.next+m.cap-len(m.readable))
	n := max(end-m.next, 0)
	for i := m.next; i < m.next+n; i++ {
		m.readable = append(m.readable, byte(m.held[i]))
		m.held[i] = -1
	}
	m.next += n
	kept := m.ranges[:0]
	for _, rg := range m.ranges {
		if rg[1] > m.next {
			kept = append(kept, rg)
		}
	}
	m.ranges = kept
	return n
}

func (m *refReceiver) release() {
	m.held = m.held[:m.next]
	m.ranges = m.ranges[:0]
}

// staged is how far past the readable bytes the stream has been received.
func (m *refReceiver) staged() int {
	n := 0
	for _, rg := range m.ranges {
		n = max(n, rg[1]-m.next)
	}
	return n
}

// receiverOpLen is the bytes of fuzz input one operation consumes: the kind
// and four operands.
const receiverOpLen = 5

// randomReceiverOps is a seed corpus entry: n operations biased towards a
// stream that progresses — segments near the cursor, gates that trail the
// newest bytes, reads that drain — with duplicates, holes and stray segments
// past the window among them.
func randomReceiverOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, n*receiverOpLen)
	for i := 0; i < n; i++ {
		kind := byte(rng.Intn(256))
		a, b, c, d := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(4))
		switch kind % 4 {
		case 0, 1: // a segment up to 3 KiB ahead of the cursor, mostly
			rel := rng.Intn(3072) - 256
			if rng.Intn(16) == 0 {
				rel = rng.Intn(1 << 15)
			}
			a, b = byte(rel>>5), byte(rel<<3)
			c = byte(rng.Intn(183) + 1) // up to a full 1460-byte segment
		case 2: // a gate up to 3 KiB past the cursor
			a, b = byte(rng.Intn(13)), byte(rng.Intn(256))
		case 3:
			a = byte(rng.Intn(4))
			kind &^= 0x80 // a read of up to 1 KiB, seldom a release
			if rng.Intn(24) == 0 {
				kind |= 0x80
			}
		}
		ops = append(ops, kind, a, b, c, d)
	}
	return ops
}

// FuzzReceiver drives arbitrary receive sequences — segments in any order,
// duplicates, overlaps with differing bytes, segments past the window and
// below the cursor, gated and ungated deposits, reads, releases — across any
// capacity and any initial sequence number (so through the 2^32 wrap) into the
// receiver and the reference model. Cursor, readable bytes, contiguous end,
// whether anything is held and every insert's verdict must agree. A segment's
// bytes are scribbled as soon as insert returns, as the fabric recycles its
// frame. While the reference's readable plus staged bytes have never passed
// 2×cap, the receiver's array is 2×cap or absent.
func FuzzReceiver(f *testing.F) {
	// Capacity 100: a range held at the gate, a second one behind it, a gate
	// that opens on the first, a partial read, the gate gone.
	f.Add(uint16(99), uint32(0), []byte{
		0, 0x00, 0x00, 10, 8, // [0,80)
		2, 0x00, 0x80, 0, 0, // gate below the cursor: deposits nothing
		0, 0x02, 0x80, 10, 16, // [80,160) while the gate holds
		2, 0x01, 0x50, 0, 0, // gate at 80: deposits 80
		3, 0x00, 0x20, 0, 0, // read 32 bytes
		0x82, 0, 0, 0, 0, // no gate
		3, 0xff, 0xff, 0, 0, // read everything
	})
	// Capacity 1460, across the 2^32 wrap: out of order, a duplicate with
	// other bytes, a segment past the window, a release with bytes readable.
	f.Add(uint16(1459), uint32(0xffffff00), []byte{
		0, 0x01, 0x00, 40, 24, // [32,352)
		0, 0x00, 0x00, 4, 24, // [0,32)
		0, 0x00, 0x00, 4, 32, // [0,32) again, other bytes
		1, 0x2e, 0x00, 183, 8, // [1472,2936): past the window, dropped
		0x82, 0, 0, 0, 0,
		0x83, 0, 0, 0, 0, // release
		3, 0xff, 0xff, 0, 0,
	})
	// Capacity 601: a full segment ending past 2×cap makes the array grow.
	f.Add(uint16(600), uint32(7), []byte{
		1, 0x12, 0x00, 183, 8, // [576,2040)
		0, 0x00, 0x00, 183, 8, // [0,1464)
		0x82, 0, 0, 0, 0,
		3, 0xff, 0xff, 0, 0,
	})
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(uint16(seed*700), uint32(seed)<<29, randomReceiverOps(seed, 400))
	}
	f.Fuzz(func(t *testing.T, capRaw uint16, isn uint32, ops []byte) {
		capacity := int(capRaw)%4096 + 1
		base := Seq(isn)
		r := newReceiver(capacity)
		r.setNext(base)
		m := &refReceiver{cap: capacity}
		withinBound := true
		buf := make([]byte, 1<<16)
		for ; len(ops) >= receiverOpLen; ops = ops[receiverOpLen:] {
			kind, u16 := ops[0], int(ops[1])<<8|int(ops[2])
			switch kind % 4 {
			case 0, 1:
				off := m.next + int(int16(u16))>>3
				data := make([]byte, int(ops[3])<<3|int(ops[4]&7))
				for i := range data {
					data[i] = byte(off+i) ^ ops[4]
				}
				want := m.insert(off, data)
				if got := r.insert(base.Add(off), data); got != want {
					t.Fatalf("insert at %+d, %d bytes: new=%v, reference %v", off-m.next, len(data), got, want)
				}
				for i := range data {
					data[i] = 0xDB // the frame is recycled
				}
			case 2:
				limit := m.next + u16 - 256
				if kind&0x80 != 0 {
					limit = m.contiguous() + 1 // no gate
				}
				if got, want := r.depositUpTo(base.Add(limit)), m.deposit(limit); got != want {
					t.Fatalf("deposit up to %+d: %d bytes, reference %d", limit-m.next, got, want)
				}
			case 3:
				if kind&0x80 != 0 {
					r.release()
					m.release()
					break
				}
				n := r.read(buf[:u16])
				if want := min(u16, len(m.readable)); n != want || !bytes.Equal(buf[:n], m.readable[:n]) {
					t.Fatalf("read of %d: %d bytes, reference %d, or the bytes differ", u16, n, want)
				}
				m.readable = m.readable[n:]
			}
			if r.rcvNxt != base.Add(m.next) || !bytes.Equal(r.buf.live, m.readable) {
				t.Fatalf("cursor %+d with %d readable bytes, reference %+d with %d, or the bytes differ",
					r.rcvNxt.Diff(base), r.readable(), m.next, len(m.readable))
			}
			if r.contiguousEnd() != base.Add(m.contiguous()) || (len(r.pending) > 0) != (len(m.ranges) > 0) {
				t.Fatalf("contiguous end %+d, %d ranges pending; reference %+d, %d",
					r.contiguousEnd().Diff(base), len(r.pending), m.contiguous(), len(m.ranges))
			}
			withinBound = withinBound && len(m.readable)+m.staged() <= 2*capacity
			if n := len(r.buf.store); withinBound && n != 0 && n != 2*capacity {
				t.Fatalf("array of %d bytes for capacity %d, though the stream never needed more than 2×cap", n, capacity)
			}
		}
	})
}
