package ipv4

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"hydranet/internal/frame"
	"hydranet/internal/sim"
)

// BenchmarkChecksum covers the frame sizes that matter on the testbed: a
// minimum frame, the classic default datagram, the benchmark ledger's
// ipv4.checksum_1k, and a full Ethernet MTU.
func BenchmarkChecksum(b *testing.B) {
	for _, size := range []int{64, 576, 1024, 1500} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Checksum(data)
			}
		})
	}
}

// BenchmarkFragmentReassemble is what tunnelling adds to a full-MSS segment
// at each replica: a 1520-byte datagram's wire bytes cut for a 1500-byte MTU
// into pooled frames, each fragment parsed and added to a reassembler, the
// finished datagram recycled. The clock moves at the 10 Mb/s line rate, so
// the cancelled timeouts are reclaimed as they are in a run.
func BenchmarkFragmentReassemble(b *testing.B) {
	s := sim.NewScheduler(1)
	r := NewReassembler(s)
	pool := frame.NewPool()
	pool.SetPoison(false)
	wire, err := mkPacket(1500).Marshal()
	if err != nil {
		b.Fatal(err)
	}
	var frag Packet
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint16(wire[4:], uint16(i)) // the cutter sums each fragment's header afresh
		var d *Reassembly
		err := cutFragments(pool, wire, 1500, func(fb *frame.Buf) {
			if err := frag.Unmarshal(fb.Bytes()); err != nil {
				b.Fatal(err)
			}
			d = r.Add(&frag)
			fb.Release()
		})
		if err != nil {
			b.Fatal(err)
		}
		if d == nil || len(d.Packet().Payload) != len(wire)-HeaderLen {
			b.Fatal("datagram did not reassemble")
		}
		r.Recycle(d, false)
		s.RunUntil(s.Now() + 1216*time.Microsecond)
	}
}

func BenchmarkHeaderMarshal(b *testing.B) {
	p := &Packet{
		Header:  Header{TTL: 64, Proto: ProtoTCP, Src: 1, Dst: 2, ID: 3},
		Payload: make([]byte, 1460),
	}
	b.SetBytes(1480)
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeaderUnmarshal(b *testing.B) {
	p := &Packet{
		Header:  Header{TTL: 64, Proto: ProtoTCP, Src: 1, Dst: 2, ID: 3},
		Payload: make([]byte, 1460),
	}
	frame, err := p.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteLookup(b *testing.B) {
	var rt RoutingTable
	rt.AddDefault(0)
	for i := 1; i <= 32; i++ {
		rt.Add(Route{Dst: Prefix{Addr: AddrFrom4(10, byte(i), 0, 0), Bits: 24}, Ifindex: i})
	}
	dst := AddrFrom4(10, 16, 0, 7)
	for i := 0; i < b.N; i++ {
		if rt.Lookup(dst) != 16 {
			b.Fatal("wrong route")
		}
	}
}
