package udp

import (
	"bytes"
	"testing"

	"hydranet/internal/ipv4"
)

// FuzzUnmarshal: arbitrary bytes must never panic the datagram parser, the
// payload it returns lies inside the input, and what parses with a checksum
// re-marshals — through Marshal and through MarshalInto over a dirty pooled
// buffer alike — to the bytes it was parsed from.
func FuzzUnmarshal(f *testing.F) {
	f.Add(Marshal(1, 2, 5402, 5402, []byte("chain message bytes...")), uint32(1), uint32(2))
	f.Add(Marshal(3, 4, 9, 10, nil), uint32(3), uint32(4))
	f.Add([]byte{0, 1, 0, 2, 0, 8, 0, 0}, uint32(0), uint32(0)) // checksum not computed
	f.Add([]byte{}, uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, srcRaw, dstRaw uint32) {
		src, dst := ipv4.Addr(srcRaw), ipv4.Addr(dstRaw)
		srcPort, dstPort, payload, err := Unmarshal(src, dst, data)
		if err != nil {
			if srcPort != 0 || dstPort != 0 || payload != nil {
				t.Fatalf("rejected datagram still returned %d %d %q", srcPort, dstPort, payload)
			}
			return
		}
		if len(payload) > len(data)-HeaderLen {
			t.Fatalf("payload of %d bytes from a %d-byte datagram", len(payload), len(data))
		}
		wire := Marshal(src, dst, srcPort, dstPort, payload)
		into := bytes.Repeat([]byte{0xDB}, HeaderLen+len(payload))
		MarshalInto(into, src, dst, srcPort, dstPort, payload)
		if !bytes.Equal(wire, into) {
			t.Fatalf("Marshal % x, MarshalInto % x", wire, into)
		}
		if data[6] == 0 && data[7] == 0 {
			return // sender skipped the checksum; ours never does
		}
		// Marshal never emits a zero checksum, and 0xffff and 0x0000 are the
		// same one's-complement value, so compare modulo that.
		got := append([]byte(nil), data[:len(wire)]...)
		if got[6] == 0xff && got[7] == 0xff || wire[6] == 0xff && wire[7] == 0xff {
			got[6], got[7], wire[6], wire[7] = 0, 0, 0, 0
		}
		if !bytes.Equal(wire, got) {
			t.Fatalf("re-marshaled % x, parsed from % x", wire, got)
		}
		sp, dp, pl, err := Unmarshal(src, dst, wire)
		if err != nil || sp != srcPort || dp != dstPort || !bytes.Equal(pl, payload) {
			t.Fatalf("round trip: %d %d %q %v", sp, dp, pl, err)
		}
	})
}
