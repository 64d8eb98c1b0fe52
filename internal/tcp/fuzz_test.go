package tcp

import (
	"bytes"
	"reflect"
	"testing"

	"hydranet/internal/ipv4"
)

// FuzzUnmarshalSegment: arbitrary bytes must never panic the segment
// parser; valid segments round-trip.
func FuzzUnmarshalSegment(f *testing.F) {
	seed := (&Segment{Flags: FlagSYN | FlagACK, Seq: 1, Ack: 2, MSS: 1460,
		Payload: []byte("seed")}).Marshal(1, 2)
	f.Add(seed, uint32(1), uint32(2))
	f.Add([]byte{}, uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, srcRaw, dstRaw uint32) {
		src, dst := ipv4.Addr(srcRaw), ipv4.Addr(dstRaw)
		seg, err := UnmarshalSegment(src, dst, data)
		// The receive path parses into a reused scratch: the result must not
		// depend on what the previous segment left there (a stale MSS option,
		// say), and a rejected segment must leave the scratch alone.
		var scratch, dirty Segment
		dirty.Scribble()
		dirty.Payload = []byte("stale")
		scratch = dirty
		if err2 := scratch.Unmarshal(src, dst, data); err2 != err {
			t.Fatalf("into-scratch error %v, allocating wrapper %v", err2, err)
		}
		if err != nil {
			if !reflect.DeepEqual(scratch, dirty) {
				t.Fatalf("rejected segment modified the scratch: %+v", scratch)
			}
			return
		}
		if !reflect.DeepEqual(&scratch, seg) {
			t.Fatalf("into-scratch parse %+v differs from fresh parse %+v", scratch, *seg)
		}
		b := seg.Marshal(src, dst)
		seg2, err := UnmarshalSegment(src, dst, b)
		if err != nil {
			t.Fatalf("re-marshaled segment does not parse: %v", err)
		}
		if seg2.Seq != seg.Seq || seg2.Ack != seg.Ack || seg2.Flags != seg.Flags ||
			!bytes.Equal(seg2.Payload, seg.Payload) {
			t.Fatal("segment round trip changed fields")
		}
	})
}
