package ipv4

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the Internet checksum (RFC 1071) over data: the one's
// complement of the one's-complement sum of all 16-bit words, padding an odd
// trailing byte with zero.
func Checksum(data []byte) uint16 {
	return ^foldSum(sum16(0, data))
}

// headerChecksum is Checksum(b[:HeaderLen]) for an option-free header, the
// only kind this stack emits: five big-endian 32-bit words added on one 64-bit
// accumulator, then folded. A 32-bit word contributes its two 16-bit words
// correctly once folded (2^16 ≡ 1 mod 65535), and an end-around fold never
// turns a nonzero sum into zero, so the result is bit-identical to Checksum,
// the 0x0000/0xFFFF corner included.
func headerChecksum(b []byte) uint16 {
	b = b[:HeaderLen]
	sum := uint64(binary.BigEndian.Uint32(b)) + uint64(binary.BigEndian.Uint32(b[4:])) +
		uint64(binary.BigEndian.Uint32(b[8:])) + uint64(binary.BigEndian.Uint32(b[12:])) +
		uint64(binary.BigEndian.Uint32(b[16:]))
	// sum < 5·2^32: three folds bring it under 2^16.
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	return ^uint16(sum)
}

// sum16 accumulates 16-bit big-endian words of data into a running 32-bit
// partial sum, for composing checksums over header + pseudo-header + payload.
//
// It runs eight bytes at a time: because one's-complement addition is
// associative and 2^16 ≡ 1 (mod 65535), a big-endian 64-bit load contributes
// its four 16-bit words correctly once the accumulator is folded. The loads
// are added on one add-with-carry chain — each carry out is the next add's
// carry in, the last one wraps around — which is addition mod 2^64-1, a
// multiple of 65535, and like the 16-bit sum it never turns a nonzero total
// into zero. The main loop consumes 32 bytes per iteration.
func sum16(acc uint32, data []byte) uint32 {
	sum, c := uint64(acc), uint64(0)
	for len(data) >= 32 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(data), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(data[8:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(data[16:]), c)
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(data[24:]), c)
		data = data[32:]
	}
	for len(data) >= 8 {
		sum, c = bits.Add64(sum, binary.BigEndian.Uint64(data), c)
		data = data[8:]
	}
	if len(data) >= 4 {
		sum, c = bits.Add64(sum, uint64(binary.BigEndian.Uint32(data)), c)
		data = data[4:]
	}
	if len(data) >= 2 {
		sum, c = bits.Add64(sum, uint64(binary.BigEndian.Uint16(data)), c)
		data = data[2:]
	}
	if len(data) == 1 {
		sum, c = bits.Add64(sum, uint64(data[0])<<8, c)
	}
	// Wrap the last carry around; that add can carry once more (out of an
	// all-ones sum), and the second wrap cannot.
	sum, c = bits.Add64(sum, 0, c)
	sum += c
	for sum>>32 != 0 {
		sum = sum&0xffffffff + sum>>32
	}
	return uint32(sum)
}

func foldSum(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = (acc & 0xffff) + acc>>16
	}
	return uint16(acc)
}

// UpdateChecksum16 incrementally updates an Internet checksum after a single
// 16-bit word of the covered data changes from old to new, per RFC 1624
// Eq. 3: HC' = ~(~HC + ~m + m'). For any header whose stored checksum was
// produced by Checksum over nonzero data, the result is bit-identical to a
// full recompute.
func UpdateChecksum16(sum, old, new uint16) uint16 {
	acc := uint32(^sum) & 0xffff
	acc += uint32(^old) & 0xffff
	acc += uint32(new)
	return ^foldSum(acc)
}

// PatchTTL overwrites the TTL byte of a marshalled IPv4 header in place and
// incrementally updates the header checksum. This is the forwarding fast
// path: a router that only decrements TTL must not re-sum the header
// (RFC 1624's motivating case).
func PatchTTL(wire []byte, ttl uint8) {
	// TTL shares its 16-bit checksum word with the protocol byte.
	old := uint16(wire[8])<<8 | uint16(wire[9])
	wire[8] = ttl
	sum := uint16(wire[10])<<8 | uint16(wire[11])
	sum = UpdateChecksum16(sum, old, uint16(ttl)<<8|uint16(wire[9]))
	wire[10] = byte(sum >> 8)
	wire[11] = byte(sum)
}

// PseudoChecksum computes the TCP/UDP checksum: the Internet checksum over
// the IPv4 pseudo-header (src, dst, protocol, segment length) followed by
// the transport segment (header + payload), whose checksum field must be
// zero in the supplied bytes.
func PseudoChecksum(src, dst Addr, proto uint8, segment []byte) uint16 {
	// The pseudo-header's six words, added as numbers: at most 4×0xffff +
	// 0xff + 0xffff, far from overflowing the accumulator.
	acc := uint32(src>>16) + uint32(src&0xffff) + uint32(dst>>16) + uint32(dst&0xffff) +
		uint32(proto) + uint32(uint16(len(segment)))
	return ^foldSum(sum16(acc, segment))
}

func putAddr(b []byte, a Addr) {
	b[0] = byte(a >> 24)
	b[1] = byte(a >> 16)
	b[2] = byte(a >> 8)
	b[3] = byte(a)
}

func getAddr(b []byte) Addr {
	return Addr(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}
