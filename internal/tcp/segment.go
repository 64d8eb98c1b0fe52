package tcp

import (
	"errors"
	"fmt"
	"strings"

	"hydranet/internal/ipv4"
)

// Flags is the TCP control-bit field.
type Flags uint8

// Control bits (RFC 793).
const (
	FlagFIN Flags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Has reports whether all bits in f2 are set.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// String renders flags like "SYN|ACK".
func (f Flags) String() string {
	names := []struct {
		bit  Flags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"},
		{FlagRST, "RST"}, {FlagPSH, "PSH"}, {FlagURG, "URG"},
	}
	var parts []string
	for _, n := range names {
		if f.Has(n.bit) {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// HeaderLen is the size of a TCP header without options.
const HeaderLen = 20

// Segment is a parsed TCP segment.
type Segment struct {
	SrcPort, DstPort uint16
	Seq              Seq
	Ack              Seq
	Flags            Flags
	Window           uint16
	// MSS is the maximum-segment-size option; nonzero only on SYN segments
	// that carry it.
	MSS     uint16
	Payload []byte
}

// Len returns the amount of sequence space the segment occupies: payload
// bytes plus one for SYN and one for FIN.
func (s *Segment) Len() int {
	n := len(s.Payload)
	if s.Flags.Has(FlagSYN) {
		n++
	}
	if s.Flags.Has(FlagFIN) {
		n++
	}
	return n
}

// String renders the segment for traces.
func (s *Segment) String() string {
	return fmt.Sprintf("%d→%d [%s] seq=%d ack=%d win=%d len=%d",
		s.SrcPort, s.DstPort, s.Flags, uint32(s.Seq), uint32(s.Ack), s.Window, len(s.Payload))
}

// Errors returned by UnmarshalSegment.
var (
	ErrSegTruncated   = errors.New("tcp: truncated segment")
	ErrSegBadChecksum = errors.New("tcp: checksum mismatch")
)

// WireLen returns the marshalled size of the segment: header, MSS option if
// present, and payload.
func (s *Segment) WireLen() int {
	n := HeaderLen + len(s.Payload)
	if s.MSS != 0 {
		n += 4
	}
	return n
}

// Marshal builds the wire format, computing the checksum over the
// pseudo-header given by src and dst.
func (s *Segment) Marshal(src, dst ipv4.Addr) []byte {
	b := make([]byte, s.WireLen())
	s.MarshalInto(b, src, dst)
	return b
}

// MarshalInto serializes the segment into b, which must be exactly
// WireLen() bytes (typically a pooled frame buffer that the IP layer will
// prepend its header to).
func (s *Segment) MarshalInto(b []byte, src, dst ipv4.Addr) {
	hdrLen := HeaderLen
	if s.MSS != 0 {
		hdrLen += 4
	}
	b[0] = byte(s.SrcPort >> 8)
	b[1] = byte(s.SrcPort)
	b[2] = byte(s.DstPort >> 8)
	b[3] = byte(s.DstPort)
	putSeq(b[4:8], s.Seq)
	putSeq(b[8:12], s.Ack)
	b[12] = byte(hdrLen/4) << 4
	b[13] = byte(s.Flags)
	b[14] = byte(s.Window >> 8)
	b[15] = byte(s.Window)
	// Checksum (zero while summing) and urgent pointer (unused). Explicit
	// stores: pooled buffers arrive with stale contents, unlike make().
	b[16], b[17] = 0, 0
	b[18], b[19] = 0, 0
	if s.MSS != 0 {
		b[20] = 2 // kind: MSS
		b[21] = 4 // length
		b[22] = byte(s.MSS >> 8)
		b[23] = byte(s.MSS)
	}
	copy(b[hdrLen:], s.Payload)
	sum := ipv4.PseudoChecksum(src, dst, ipv4.ProtoTCP, b)
	b[16] = byte(sum >> 8)
	b[17] = byte(sum)
}

// UnmarshalSegment parses and validates a wire-format segment. It allocates
// the Segment; the receive path parses into a stack-owned one with
// (*Segment).Unmarshal instead.
func UnmarshalSegment(src, dst ipv4.Addr, b []byte) (*Segment, error) {
	s := new(Segment)
	if err := s.Unmarshal(src, dst, b); err != nil {
		return nil, err
	}
	return s, nil
}

// Unmarshal parses and validates b into s, overwriting every field; on error
// s is left untouched. Payload aliases b.
func (s *Segment) Unmarshal(src, dst ipv4.Addr, b []byte) error {
	if len(b) < HeaderLen {
		return ErrSegTruncated
	}
	hdrLen := int(b[12]>>4) * 4
	if hdrLen < HeaderLen || len(b) < hdrLen {
		return ErrSegTruncated
	}
	if ipv4.PseudoChecksum(src, dst, ipv4.ProtoTCP, b) != 0 {
		return ErrSegBadChecksum
	}
	*s = Segment{
		SrcPort: uint16(b[0])<<8 | uint16(b[1]),
		DstPort: uint16(b[2])<<8 | uint16(b[3]),
		Seq:     getSeq(b[4:8]),
		Ack:     getSeq(b[8:12]),
		Flags:   Flags(b[13]),
		Window:  uint16(b[14])<<8 | uint16(b[15]),
		Payload: b[hdrLen:],
	}
	// Parse options for MSS.
	opts := b[HeaderLen:hdrLen]
	for i := 0; i < len(opts); {
		switch opts[i] {
		case 0: // end of options
			i = len(opts)
		case 1: // NOP
			i++
		case 2: // MSS
			if i+4 <= len(opts) && opts[i+1] == 4 {
				s.MSS = uint16(opts[i+2])<<8 | uint16(opts[i+3])
			}
			i += 4
		default:
			if i+1 >= len(opts) || opts[i+1] < 2 {
				i = len(opts)
			} else {
				i += int(opts[i+1])
			}
		}
	}
	return nil
}

// Scribble overwrites s with recognisably wrong values; see
// ipv4.(*Packet).Scribble.
func (s *Segment) Scribble() {
	*s = Segment{
		SrcPort: 0xDBDB, DstPort: 0xDBDB, Seq: 0xDBDBDBDB, Ack: 0xDBDBDBDB,
		Flags: 0xDB, Window: 0xDBDB, MSS: 0xDBDB,
	}
}

func putSeq(b []byte, s Seq) {
	b[0] = byte(s >> 24)
	b[1] = byte(s >> 16)
	b[2] = byte(s >> 8)
	b[3] = byte(s)
}

func getSeq(b []byte) Seq {
	return Seq(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}
