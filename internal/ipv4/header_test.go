package ipv4

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"hydranet/internal/inet"
)

func TestChecksumKnownVector(t *testing.T) {
	// Classic example from RFC 1071 discussions: an IPv4 header whose
	// checksum field is filled must re-sum to zero.
	p := &Packet{
		Header:  Header{TTL: 64, Proto: ProtoTCP, Src: inet.MustParseAddr("10.0.0.1"), Dst: inet.MustParseAddr("10.0.0.2"), ID: 0x1c46},
		Payload: []byte("hello"),
	}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if Checksum(b[:HeaderLen]) != 0 {
		t.Error("checksum over header including checksum field is nonzero")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	f := func(data []byte, pos uint16, flip uint8) bool {
		if len(data) == 0 || flip == 0 {
			return true
		}
		p := &Packet{Header: Header{TTL: 10, Proto: ProtoUDP, Src: 1, Dst: 2, ID: 3}, Payload: data}
		b, err := p.Marshal()
		if err != nil {
			return true
		}
		i := int(pos) % HeaderLen
		b[i] ^= flip
		_, err = Unmarshal(b)
		// Either the checksum catches it, or the flip hit a field that
		// still parses to a *different* header — but the checksum must
		// fail because exactly one byte changed.
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(tos uint8, id uint16, ttl uint8, proto uint8, src, dst uint32, n uint16) bool {
		payload := make([]byte, int(n)%2000)
		rng.Read(payload)
		in := &Packet{
			Header: Header{
				TOS: tos, ID: id, TTL: ttl, Proto: proto,
				Src: Addr(src), Dst: Addr(dst),
			},
			Payload: payload,
		}
		b, err := in.Marshal()
		if err != nil {
			return false
		}
		out, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return out.TOS == in.TOS && out.ID == in.ID && out.TTL == in.TTL &&
			out.Proto == in.Proto && out.Src == in.Src && out.Dst == in.Dst &&
			bytes.Equal(out.Payload, payload) &&
			out.TotalLen == HeaderLen+len(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFragmentFlagsRoundTrip(t *testing.T) {
	in := &Packet{
		Header:  Header{TTL: 5, Proto: ProtoTCP, Src: 1, Dst: 2, MoreFrag: true, FragOff: 1480},
		Payload: []byte("frag"),
	}
	b, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !out.MoreFrag || out.FragOff != 1480 || out.DontFrag {
		t.Errorf("frag fields = MF:%v DF:%v off:%d", out.MoreFrag, out.DontFrag, out.FragOff)
	}
}

func TestMarshalRejectsUnalignedFragOff(t *testing.T) {
	p := &Packet{Header: Header{FragOff: 5}}
	if _, err := p.Marshal(); err == nil {
		t.Error("unaligned fragment offset accepted")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	p := &Packet{Header: Header{TTL: 64, Proto: ProtoTCP, Src: 1, Dst: 2}, Payload: []byte("x")}
	good, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Unmarshal(good[:10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short frame: err = %v, want ErrTruncated", err)
	}

	bad := append([]byte(nil), good...)
	bad[0] = 0x65 // version 6
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version 6: err = %v, want ErrBadVersion", err)
	}

	bad = append([]byte(nil), good...)
	bad[12] ^= 0xff // corrupt src
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("corrupt src: err = %v, want ErrBadChecksum", err)
	}
}

func TestUnmarshalPayloadHonoursTotalLen(t *testing.T) {
	// Ethernet-style padding after the datagram must be stripped.
	p := &Packet{Header: Header{TTL: 64, Proto: ProtoUDP, Src: 1, Dst: 2}, Payload: []byte("data")}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	padded := append(b, 0, 0, 0, 0)
	out, err := Unmarshal(padded)
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Payload) != "data" {
		t.Errorf("payload %q, want %q", out.Payload, "data")
	}
}

func TestPseudoChecksumVerifies(t *testing.T) {
	src, dst := inet.MustParseAddr("10.0.0.1"), inet.MustParseAddr("10.0.0.2")
	seg := make([]byte, 24)
	copy(seg[20:], "data")
	sum := PseudoChecksum(src, dst, ProtoTCP, seg)
	seg[16] = byte(sum >> 8) // checksum field position is irrelevant to the math:
	seg[17] = byte(sum)      // re-summing with it filled must give zero
	if got := PseudoChecksum(src, dst, ProtoTCP, seg); got != 0 {
		t.Errorf("verify sum = %#x, want 0", got)
	}
}

func TestPseudoChecksumCoversAddresses(t *testing.T) {
	seg := []byte{1, 2, 3, 4}
	a := PseudoChecksum(1, 2, ProtoTCP, seg)
	b := PseudoChecksum(1, 3, ProtoTCP, seg)
	if a == b {
		t.Error("checksum identical under different dst address")
	}
}
