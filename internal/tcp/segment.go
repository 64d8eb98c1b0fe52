package tcp

import (
	"encoding/binary"
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
	binary.BigEndian.PutUint16(b[0:2], s.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], s.DstPort)
	binary.BigEndian.PutUint32(b[4:8], uint32(s.Seq))
	binary.BigEndian.PutUint32(b[8:12], uint32(s.Ack))
	b[12] = byte(hdrLen/4) << 4
	b[13] = byte(s.Flags)
	binary.BigEndian.PutUint16(b[14:16], s.Window)
	// Checksum (zero while summing) and urgent pointer (unused). Explicit
	// stores: pooled buffers arrive with stale contents, unlike make().
	b[16], b[17] = 0, 0
	b[18], b[19] = 0, 0
	if s.MSS != 0 {
		b[20] = 2 // kind: MSS
		b[21] = 4 // length
		binary.BigEndian.PutUint16(b[22:24], s.MSS)
	}
	copy(b[hdrLen:], s.Payload)
	binary.BigEndian.PutUint16(b[16:18], ipv4.PseudoChecksum(src, dst, ipv4.ProtoTCP, b))
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
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     Seq(binary.BigEndian.Uint32(b[4:8])),
		Ack:     Seq(binary.BigEndian.Uint32(b[8:12])),
		Flags:   Flags(b[13]),
		Window:  binary.BigEndian.Uint16(b[14:16]),
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
				s.MSS = binary.BigEndian.Uint16(opts[i+2 : i+4])
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
