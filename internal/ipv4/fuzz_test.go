package ipv4

import (
	"bytes"
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

// FuzzFragmentReassemble: any payload fragmented at any legal MTU must
// reassemble byte-identically.
func FuzzFragmentReassemble(f *testing.F) {
	f.Add([]byte("hello world"), 28)
	f.Add(bytes.Repeat([]byte{7}, 5000), 576)
	f.Fuzz(func(t *testing.T, payload []byte, mtu int) {
		if mtu < HeaderLen+8 || mtu > 65535 || len(payload) > 60000 {
			return
		}
		p := &Packet{Header: Header{TTL: 9, Proto: ProtoUDP, Src: 4, Dst: 5, ID: 6}, Payload: payload}
		frags, err := Fragment(p, mtu)
		if err != nil {
			t.Fatalf("fragmenting %d bytes at mtu %d: %v", len(payload), mtu, err)
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
		if !bytes.Equal(out.Payload, payload) {
			t.Fatal("reassembled payload differs")
		}
	})
}

func newTestReassembler(t *testing.T) *Reassembler {
	t.Helper()
	return NewReassembler(newTestScheduler())
}
