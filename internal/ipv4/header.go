package ipv4

import (
	"errors"
	"fmt"
)

// Assigned protocol numbers used by HydraNet-FT.
const (
	ProtoIPIP uint8 = 4 // IP-in-IP encapsulation, the redirector's tunnel
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// HeaderLen is the length of an IPv4 header without options. This stack
// never emits options.
const HeaderLen = 20

// Flag bits in the fragmentation field.
const (
	flagDF = 0x4000 // don't fragment
	flagMF = 0x2000 // more fragments
)

// Header is a parsed IPv4 header (no options).
type Header struct {
	TOS      uint8
	TotalLen int
	ID       uint16
	DontFrag bool
	MoreFrag bool
	FragOff  int // byte offset of this fragment in the original datagram
	TTL      uint8
	Proto    uint8
	Src, Dst Addr
}

// Packet is a parsed IPv4 datagram (or fragment).
type Packet struct {
	Header
	Payload []byte

	// wire holds the original marshalled bytes when the packet came off the
	// fabric via Unmarshal. Forwarding and encapsulation send a copy of it
	// (patching TTL incrementally) instead of re-marshalling. Like Payload,
	// it aliases the fabric's frame buffer and is valid only during the
	// delivery event.
	wire []byte
}

// Wire returns the packet's original wire bytes if it was produced by
// Unmarshal, else nil. The slice aliases the received frame: it is readable
// only synchronously within the delivery event, and callers must treat it
// as immutable except through PatchTTL-style incremental updates applied to
// a copy.
func (p *Packet) Wire() []byte { return p.wire }

// Errors returned by Unmarshal.
var (
	ErrTruncated   = errors.New("ipv4: truncated packet")
	ErrBadVersion  = errors.New("ipv4: not an IPv4 packet")
	ErrBadChecksum = errors.New("ipv4: header checksum mismatch")
	ErrBadLength   = errors.New("ipv4: total length disagrees with frame")
)

// Marshal serializes the packet into wire format, computing TotalLen and the
// header checksum. Fragment offsets must be multiples of 8 bytes.
func (p *Packet) Marshal() ([]byte, error) {
	if p.FragOff%8 != 0 {
		return nil, fmt.Errorf("ipv4: fragment offset %d not a multiple of 8", p.FragOff)
	}
	total := HeaderLen + len(p.Payload)
	if total > 0xffff {
		return nil, fmt.Errorf("ipv4: datagram of %d bytes exceeds 65535", total)
	}
	b := make([]byte, total)
	p.putHeader(b, total)
	copy(b[HeaderLen:], p.Payload)
	return b, nil
}

// putHeader writes the 20-byte wire header (with checksum) into b[:HeaderLen].
// The receiver is a value: through a pointer, the header SendSegment's
// loopback closure captures would move to the heap on every send.
func (h Header) putHeader(b []byte, total int) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = h.TOS
	b[2] = byte(total >> 8)
	b[3] = byte(total)
	b[4] = byte(h.ID >> 8)
	b[5] = byte(h.ID)
	frag := uint16(h.FragOff / 8)
	if h.DontFrag {
		frag |= flagDF
	}
	if h.MoreFrag {
		frag |= flagMF
	}
	b[6] = byte(frag >> 8)
	b[7] = byte(frag)
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0 // checksum, zero while summing
	putAddr(b[12:16], h.Src)
	putAddr(b[16:20], h.Dst)
	sum := headerChecksum(b)
	b[10] = byte(sum >> 8)
	b[11] = byte(sum)
}

// Unmarshal parses and validates a wire-format IPv4 packet, verifying the
// header checksum. The returned packet's payload aliases b. It allocates the
// Packet; the frame path parses into a receiver-owned one with
// (*Packet).Unmarshal instead.
func Unmarshal(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := p.Unmarshal(b); err != nil {
		return nil, err
	}
	return p, nil
}

// Unmarshal parses and validates b into p, overwriting every field; on error
// p is left untouched. Payload and the wire bytes alias b.
func (p *Packet) Unmarshal(b []byte) error {
	if len(b) < HeaderLen {
		return ErrTruncated
	}
	if b[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < HeaderLen || len(b) < ihl {
		return ErrTruncated
	}
	if ihl == HeaderLen {
		if headerChecksum(b) != 0 {
			return ErrBadChecksum
		}
	} else if Checksum(b[:ihl]) != 0 {
		return ErrBadChecksum
	}
	total := int(b[2])<<8 | int(b[3])
	if total < ihl || total > len(b) {
		return ErrBadLength
	}
	frag := uint16(b[6])<<8 | uint16(b[7])
	p.Header = Header{
		TOS:      b[1],
		TotalLen: total,
		ID:       uint16(b[4])<<8 | uint16(b[5]),
		DontFrag: frag&flagDF != 0,
		MoreFrag: frag&flagMF != 0,
		FragOff:  int(frag&0x1fff) * 8,
		TTL:      b[8],
		Proto:    b[9],
		Src:      getAddr(b[12:16]),
		Dst:      getAddr(b[16:20]),
	}
	p.Payload = b[ihl:total]
	p.wire = b[:total]
	return nil
}

// Scribble overwrites p with recognisably wrong values. Receivers that parse
// into a scratch Packet call it in frame-poison mode once their handlers have
// returned, so a handler that kept the pointer reads garbage at once instead
// of whatever the next frame happens to hold.
func (p *Packet) Scribble() {
	*p = Packet{Header: Header{
		TOS: 0xDB, TotalLen: 0xDBDB, ID: 0xDBDB, FragOff: 0xDBD8,
		TTL: 0xDB, Proto: 0xDB, Src: 0xDBDBDBDB, Dst: 0xDBDBDBDB,
	}}
}
