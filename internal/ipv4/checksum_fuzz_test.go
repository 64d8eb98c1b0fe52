package ipv4

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzIncrementalChecksum checks RFC 1624 Eq. 3 against ground truth: for
// an arbitrary header with a correctly computed checksum, mutating any
// 16-bit word and updating incrementally must agree bit-for-bit with a full
// recompute over the mutated bytes.
func FuzzIncrementalChecksum(f *testing.F) {
	f.Add([]byte{0x45, 0, 0, 20, 0, 1, 0, 0, 64, 6, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2}, uint8(4), uint16(0x3f06))
	f.Add([]byte{0x45, 0, 5, 220, 0, 9, 0x20, 0, 1, 17, 0, 0, 10, 0, 1, 1, 10, 0, 2, 2}, uint8(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0xff}, 20), uint8(9), uint16(0xffff))
	f.Fuzz(func(t *testing.T, hdr []byte, wordIdx uint8, newWord uint16) {
		if len(hdr) < 4 || len(hdr)%2 != 0 {
			t.Skip()
		}
		h := append([]byte(nil), hdr...)
		// Install a correct checksum in the second word (the IPv4 slot is
		// byte 10, but the identity holds wherever the field lives; using a
		// fixed slot keeps the harness simple).
		h[2], h[3] = 0, 0
		sum := Checksum(h)
		h[2], h[3] = byte(sum>>8), byte(sum)

		// Mutate one word other than the checksum field itself.
		i := int(wordIdx) % (len(h) / 2)
		if i == 1 {
			i = 0
		}
		old := uint16(h[2*i])<<8 | uint16(h[2*i+1])
		got := UpdateChecksum16(sum, old, newWord)

		h[2*i], h[2*i+1] = byte(newWord>>8), byte(newWord)
		h[2], h[3] = 0, 0
		want := Checksum(h)

		// Both the incremental result and the recompute are produced by a
		// final one's complement, so they agree exactly unless the data sums
		// to zero — impossible here only when the header has nonzero bytes;
		// all-zero data is the single 0x0000 vs 0xFFFF ambiguity in the
		// Internet checksum, which RFC 1624 acknowledges. Accept both
		// representations of zero in that case.
		if got != want && !(got%0xffff == want%0xffff) {
			t.Fatalf("incremental %#04x != recompute %#04x (word %d: %#04x -> %#04x)",
				got, want, i, old, newWord)
		}
	})
}

// FuzzPatchTTL drives the TTL patch forwarding applies to every copy: marshal a valid
// header, patch the TTL, and require the result to verify and to match a
// full re-marshal.
func FuzzPatchTTL(f *testing.F) {
	f.Add(uint8(64), uint8(63), uint8(6))
	f.Add(uint8(1), uint8(0), uint8(17))
	f.Add(uint8(255), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, ttl, newTTL, proto uint8) {
		p := &Packet{Header: Header{
			TTL: ttl, Proto: proto, Src: AddrFrom4(10, 0, 0, 1), Dst: AddrFrom4(10, 0, 9, 9), ID: 77,
		}}
		wire, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		PatchTTL(wire, newTTL)
		if got := Checksum(wire[:HeaderLen]); got != 0 {
			t.Fatalf("patched header does not verify: residual %#04x", got)
		}
		p.TTL = newTTL
		want, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, want) {
			t.Fatalf("patched wire\n%x\n!= remarshal\n%x", wire, want)
		}
	})
}

// refSum16 is the Internet checksum's sum as RFC 1071 states it: the bytes
// taken in pairs as big-endian 16-bit words (an odd last byte padded with
// zero), added as plain integers onto acc, the carries folded back in at the
// end. Folding an exact nonzero sum never yields zero — 0xFFFF stands for
// every nonzero multiple of 65535 — which is the corner sum16 must keep.
func refSum16(acc uint32, data []byte) uint16 {
	sum := uint64(acc)
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint64(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

func refPseudoChecksum(src, dst Addr, proto uint8, segment []byte) uint16 {
	pseudo := []byte{
		byte(src >> 24), byte(src >> 16), byte(src >> 8), byte(src),
		byte(dst >> 24), byte(dst >> 16), byte(dst >> 8), byte(dst),
		0, proto, byte(len(segment) >> 8), byte(len(segment)),
	}
	return ^refSum16(uint32(refSum16(0, pseudo)), segment)
}

// TestSum16MatchesBytePairReference compares the eight-bytes-at-a-time sum
// with the reference at every length a frame can have and beyond, from even
// and odd addresses, over random, all-ones and all-zero data, onto
// accumulators that are zero, small, folded-full and full.
func TestSum16MatchesBytePairReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const maxLen, maxSkew = 2048, 3
	patterns := map[string][]byte{
		"random": make([]byte, maxLen+maxSkew),
		"ones":   bytes.Repeat([]byte{0xff}, maxLen+maxSkew),
		"zeros":  make([]byte, maxLen+maxSkew),
	}
	rng.Read(patterns["random"])
	accs := []uint32{0, 1, 0xffff, 0xffff0000, 0xffffffff, rng.Uint32()}
	for name, buf := range patterns {
		for n := 0; n <= maxLen; n++ {
			for skew := 0; skew <= maxSkew; skew++ {
				data := buf[skew : skew+n]
				for _, acc := range accs {
					if got, want := foldSum(sum16(acc, data)), refSum16(acc, data); got != want {
						t.Fatalf("%s, %d bytes at +%d onto %#x: sum %#04x, reference %#04x", name, n, skew, acc, got, want)
					}
				}
				if got, want := Checksum(data), ^refSum16(0, data); got != want {
					t.Fatalf("%s, %d bytes at +%d: Checksum %#04x, reference %#04x", name, n, skew, got, want)
				}
				src, dst := Addr(rng.Uint32()), Addr(rng.Uint32())
				if got, want := PseudoChecksum(src, dst, ProtoTCP, data), refPseudoChecksum(src, dst, ProtoTCP, data); got != want {
					t.Fatalf("%s, %d bytes at +%d: PseudoChecksum %#04x, reference %#04x", name, n, skew, got, want)
				}
			}
		}
	}
	// The one input that sums to zero, and the all-ones inputs that do not.
	if Checksum(nil) != 0xffff || Checksum(make([]byte, 40)) != 0xffff || Checksum(bytes.Repeat([]byte{0xff}, 40)) != 0 {
		t.Fatal("the 0x0000/0xFFFF corner moved")
	}
}

// FuzzSum16: arbitrary bytes from an arbitrary address onto an arbitrary
// accumulator sum to what the byte-pair reference says, and the option-free
// header checksum agrees with the reference on the first 20 bytes.
func FuzzSum16(f *testing.F) {
	for _, hdr := range [][]byte{make([]byte, HeaderLen), bytes.Repeat([]byte{0xff}, HeaderLen)} {
		if got, want := headerChecksum(hdr), ^refSum16(0, hdr); got != want {
			f.Fatalf("header % x: headerChecksum %#04x, reference %#04x", hdr, got, want)
		}
	}
	f.Add([]byte{}, uint32(0), uint8(0))
	f.Add([]byte{0x45, 0, 0, 20, 0, 1, 0, 0, 64, 6, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2}, uint32(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 97), uint32(0xffffffff), uint8(1))
	f.Add(make([]byte, 64), uint32(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, acc uint32, skew uint8) {
		if s := int(skew % 8); s < len(data) {
			data = data[s:]
		}
		if got, want := foldSum(sum16(acc, data)), refSum16(acc, data); got != want {
			t.Fatalf("%d bytes onto %#x: sum %#04x, reference %#04x", len(data), acc, got, want)
		}
		if got, want := PseudoChecksum(Addr(acc), Addr(^acc), skew, data), refPseudoChecksum(Addr(acc), Addr(^acc), skew, data); got != want {
			t.Fatalf("%d bytes: PseudoChecksum %#04x, reference %#04x", len(data), got, want)
		}
		if len(data) >= HeaderLen {
			if got, want := headerChecksum(data), ^refSum16(0, data[:HeaderLen]); got != want {
				t.Fatalf("header % x: headerChecksum %#04x, reference %#04x", data[:HeaderLen], got, want)
			}
		}
	})
}
