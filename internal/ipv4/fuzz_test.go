package ipv4

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"hydranet/internal/sim"
)

func newTestScheduler() *sim.Scheduler { return sim.NewScheduler(1) }

// FuzzUnmarshal hardens the header parser: arbitrary frames must never
// panic, and anything that parses must re-marshal to an equivalent packet.
func FuzzUnmarshal(f *testing.F) {
	good, _ := (&Packet{
		Header:  Header{TTL: 64, Proto: ProtoTCP, Src: 1, Dst: 2, ID: 3},
		Payload: []byte("seed"),
	}).Marshal()
	f.Add(good)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x45}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		// The frame path parses into a reused scratch: whatever the previous
		// frame left there, the result must equal a parse into a fresh Packet,
		// and a rejected frame must leave the scratch alone.
		var scratch, dirty Packet
		dirty.Scribble()
		dirty.Payload, dirty.wire = []byte("stale"), []byte("stale wire")
		scratch = dirty
		if err2 := scratch.Unmarshal(data); err2 != err {
			t.Fatalf("into-scratch error %v, allocating wrapper %v", err2, err)
		}
		if err != nil {
			if !reflect.DeepEqual(scratch, dirty) {
				t.Fatalf("rejected frame modified the scratch: %+v", scratch)
			}
			return
		}
		if !reflect.DeepEqual(&scratch, p) {
			t.Fatalf("into-scratch parse %+v differs from fresh parse %+v", scratch, *p)
		}
		b, err := p.Marshal()
		if err != nil {
			// Parsed packets with odd fragment offsets can refuse to
			// re-marshal; that is fine.
			return
		}
		p2, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("re-marshaled packet does not parse: %v", err)
		}
		if p2.Src != p.Src || p2.Dst != p.Dst || p2.Proto != p.Proto ||
			!bytes.Equal(p2.Payload, p.Payload) {
			t.Fatal("unmarshal/marshal round trip changed the packet")
		}
	})
}

// FuzzFragmentReassemble: for any payload, header fields and legal MTU, and
// for a datagram that is itself a fragment (a base offset, MF), the cutter's
// fragments are byte for byte the reference cutter's, and they reassemble —
// with a head and a tail around a fragment — to the datagram. flags bit 0 is
// MF, bit 1 DF.
func FuzzFragmentReassemble(f *testing.F) {
	f.Add([]byte("hello world"), 28, uint16(6), uint8(0), uint8(9), ProtoUDP, uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{7}, 5000), 576, uint16(0xffff), uint8(0xb8), uint8(1), ProtoTCP, uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{3}, 1500), 1500, uint16(77), uint8(0), uint8(63), ProtoIPIP, uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{5}, 1480), 600, uint16(42), uint8(0), uint8(64), ProtoTCP, uint16(185), uint8(1))
	f.Add(bytes.Repeat([]byte{9}, 100), 60, uint16(1), uint8(0), uint8(64), ProtoUDP, uint16(0), uint8(2))
	f.Fuzz(func(t *testing.T, payload []byte, mtu int, id uint16, tos, ttl, proto uint8, base uint16, flags uint8) {
		off := int(base&0x1fff) * 8
		const tailLen = 8
		if mtu < HeaderLen+8 || mtu > 65535 || off+len(payload)+tailLen > maxPayload {
			return
		}
		p := &Packet{Header: Header{
			TOS: tos, ID: id, TTL: ttl, Proto: proto, Src: 4, Dst: 5,
			FragOff: off, MoreFrag: flags&1 != 0, DontFrag: flags&2 != 0,
		}, Payload: payload}
		if HeaderLen+len(payload) > mtu {
			want, wantErr := refFragments(p, mtu)
			wire, err := p.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			err = cutWire(wire, mtu, func(b []byte) error { got = append(got, b); return nil })
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("cutter error %v, reference %v", err, wantErr)
			}
			if err != nil {
				if !p.DontFrag || !errors.Is(err, ErrFragNeeded) {
					t.Fatalf("fragmenting %d bytes at mtu %d: %v", len(payload), mtu, err)
				}
				return
			}
			if len(got) != len(want) {
				t.Fatalf("%d fragments, reference %d", len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("fragment %d of %d:\n got %x\nwant %x", i, len(got), got[i][:HeaderLen], want[i][:HeaderLen])
				}
			}
		}
		frags, err := Fragment(p, mtu)
		if err != nil {
			t.Fatal(err)
		}
		var whole []byte
		if off > 0 {
			head := *p
			head.FragOff, head.MoreFrag, head.Payload = 0, true, bytes.Repeat([]byte{0xA5}, off)
			frags = append(frags, &head)
			whole = append(whole, head.Payload...)
		}
		whole = append(whole, payload...)
		if p.MoreFrag {
			tail := *p
			tail.FragOff, tail.MoreFrag, tail.Payload = off+len(payload), false, bytes.Repeat([]byte{0x5A}, tailLen)
			frags = append(frags, &tail)
			whole = append(whole, tail.Payload...)
		}
		r := newTestReassembler(t)
		var out *Packet
		for _, fr := range frags {
			if got := addFragment(r, fr, true); got != nil {
				out = got
			}
		}
		if out == nil {
			t.Fatal("fragments did not reassemble")
		}
		if !bytes.Equal(out.Payload, whole) || out.ID != id || out.Proto != proto {
			t.Fatalf("reassembled datagram differs: %d bytes, ID %d, proto %d", len(out.Payload), out.ID, out.Proto)
		}
	})
}

func newTestReassembler(t *testing.T) *Reassembler {
	t.Helper()
	return NewReassembler(newTestScheduler())
}
