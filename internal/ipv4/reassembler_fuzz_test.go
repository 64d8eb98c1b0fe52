package ipv4

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"hydranet/internal/sim"
)

// refReassembler is the reference the real one is checked against: a
// datagram is a map from payload offset to the byte last written there and
// the length its latest last-fragment announced; it is complete when every
// offset below that length is present. No buffers, spans, lists or events.
type refReassembler struct {
	pending map[fragKey]*refDatagram
	order   []fragKey // pending keys, oldest first
	stats   ReassemblyStats
}

type refDatagram struct {
	bytes map[int]byte
	total int
	born  time.Duration
}

func (m *refReassembler) drop(key fragKey) {
	delete(m.pending, key)
	for i, k := range m.order {
		if k == key {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// add returns the completed payload, nil while incomplete.
func (m *refReassembler) add(now time.Duration, p *Packet) []byte {
	key := fragKeyOf(p)
	d := m.pending[key]
	if p.FragOff+len(p.Payload) > maxPayload {
		if d != nil {
			m.drop(key)
		}
		m.stats.Oversize++
		return nil
	}
	if d == nil {
		if len(m.pending) >= maxReassemblies {
			m.drop(m.order[0])
			m.stats.Expired++
			m.stats.Evicted++
		}
		d = &refDatagram{bytes: map[int]byte{}, total: -1, born: now}
		m.pending[key] = d
		m.order = append(m.order, key)
	}
	for i, b := range p.Payload {
		d.bytes[p.FragOff+i] = b
	}
	if !p.MoreFrag {
		d.total = p.FragOff + len(p.Payload)
	}
	if d.total < 0 {
		return nil
	}
	out := make([]byte, d.total)
	for i := range out {
		b, ok := d.bytes[i]
		if !ok {
			return nil
		}
		out[i] = b
	}
	m.drop(key)
	return out
}

// expire discards what has been pending for ReassemblyTimeout at now.
func (m *refReassembler) expire(now time.Duration) {
	for len(m.order) > 0 && m.pending[m.order[0]].born+ReassemblyTimeout <= now {
		m.drop(m.order[0])
		m.stats.Expired++
	}
}

// reassemblerOpLen is the bytes of fuzz input one operation consumes:
// flags, key, two bytes of offset or clock advance, length, fill seed.
const reassemblerOpLen = 6

// randomReassemblerOps is a seed corpus entry: n operations biased towards
// streams that complete (few keys, low offsets, eight-byte multiples).
func randomReassemblerOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, n*reassemblerOpLen)
	for i := 0; i < n; i++ {
		flags := byte(rng.Intn(256))
		if rng.Intn(8) != 0 {
			flags &^= 0x30 // low offsets, keys below 256
		}
		if rng.Intn(16) != 0 && flags&0x0c == 0x0c {
			flags &^= 0x04 // a fragment rather than a clock advance
		}
		ops = append(ops, flags, byte(rng.Intn(3)), byte(rng.Intn(256)), byte(rng.Intn(12)), byte(rng.Intn(4)*8), byte(rng.Intn(256)))
	}
	return ops
}

// FuzzReassembler drives arbitrary fragment streams — any order, duplicates,
// overlaps with differing bytes, oversize fragments, many interleaved keys
// (enough to reach the pending cap), clock advances across the timeout —
// through the Reassembler and the reference model: the same fragments must
// complete a datagram, with the same bytes, and the drop counters must
// agree. Poison is on, so every recycled datagram must read 0xDB; some
// finished datagrams are held, unrecycled, across the next operation, as a
// handler that re-enters Add holds its own.
func FuzzReassembler(f *testing.F) {
	two := []byte{
		0x01, 7, 0, 0, 16, 1, // key 7: [0,16) MF
		0x00, 7, 0, 2, 9, 2, // key 7: [16,25) last
	}
	f.Add(two)
	f.Add([]byte{
		0x00, 1, 0, 4, 8, 1, // last fragment first
		0x01, 1, 0, 2, 16, 2, // middle
		0x01, 1, 0, 2, 16, 3, // duplicate, other bytes
		0x01, 1, 0, 1, 12, 4, // overlaps it
		0x03, 1, 0, 0, 8, 5, // first: completes, held over the next op
		0x01, 2, 0, 0, 8, 6,
	})
	f.Add([]byte{
		0x01, 3, 0, 0, 8, 1,
		0x0c, 0, 0x75, 0x30, 0, 0, // 30 s pass: it expires
		0x00, 3, 0, 1, 8, 2, // the late fragment alone completes nothing
		0x21, 4, 0xff, 0xff, 200, 3, // offset 65528: oversize
	})
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomReassemblerOps(seed, 300))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		sched := sim.NewScheduler(1)
		r := NewReassembler(sched)
		m := &refReassembler{pending: map[fragKey]*refDatagram{}}
		var held *Reassembly
		var heldWant []byte
		release := func() {
			if held == nil {
				return
			}
			got := held.Packet().Payload
			if !bytes.Equal(got, heldWant) {
				t.Fatal("a finished datagram changed before it was recycled")
			}
			r.Recycle(held, true)
			if held.Packet().TotalLen != 0xDBDB || bytes.Count(got, []byte{0xDB}) != len(got) {
				t.Fatal("a recycled datagram is still readable in poison mode")
			}
			held = nil
		}
		for ; len(ops) >= reassemblerOpLen; ops = ops[reassemblerOpLen:] {
			flags, u16 := ops[0], int(ops[2])<<8|int(ops[3])
			if flags&0x0c == 0x0c {
				sched.RunUntil(sched.Now() + time.Duration(u16)*time.Millisecond)
				m.expire(sched.Now())
			} else {
				p := &Packet{Header: Header{
					TTL: 9, Proto: ProtoUDP, Src: 1, Dst: 2,
					ID:       uint16(ops[1]) | uint16(flags&0x10)<<4,
					MoreFrag: flags&0x01 != 0,
				}}
				if flags&0x20 != 0 {
					p.FragOff = u16 & 0x1fff * 8
				} else {
					p.FragOff = u16 & 0x3f * 8
				}
				n := int(ops[4])
				if flags&0x40 != 0 {
					n *= 8
				}
				p.Payload = make([]byte, n)
				for i := range p.Payload {
					p.Payload[i] = ops[5] + byte(i)*7
				}
				if p.FragOff == 0 && !p.MoreFrag {
					continue // a whole datagram: never reaches the reassembler
				}
				want := m.add(sched.Now(), p)
				d := r.Add(p)
				if (d != nil) != (want != nil) {
					t.Fatalf("fragment at %d+%d of %d: completed=%v, reference %v", p.FragOff, n, p.ID, d != nil, want != nil)
				}
				release()
				if d != nil {
					got := d.Packet()
					if !bytes.Equal(got.Payload, want) {
						t.Fatalf("datagram %d: %d bytes differ from the reference's %d", p.ID, len(got.Payload), len(want))
					}
					if got.FragOff != 0 || got.MoreFrag || got.TotalLen != HeaderLen+len(want) || got.ID != p.ID {
						t.Fatalf("datagram %d: header %+v", p.ID, got.Header)
					}
					held, heldWant = d, want
					if flags&0x02 == 0 {
						release()
					}
				}
			}
			if r.ReassemblyStats != m.stats || len(r.pending) != len(m.pending) {
				t.Fatalf("stats %+v with %d pending, reference %+v with %d", r.ReassemblyStats, len(r.pending), m.stats, len(m.pending))
			}
		}
		release()
		sched.Run()
		m.expire(sched.Now())
		if r.ReassemblyStats != m.stats || len(r.pending) != 0 {
			t.Fatalf("after the last timeout: stats %+v with %d pending, reference %+v", r.ReassemblyStats, len(r.pending), m.stats)
		}
	})
}
