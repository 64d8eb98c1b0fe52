package scope

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/capture"
	"hydranet/internal/core"
	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/tcp"
	"hydranet/internal/testbed"
	"hydranet/internal/udp"
)

// testbedCapture is the pcap of an 8 KiB ttcp transfer in full-MSS writes on
// the Figure-4 testbed in case c: in the FT cases every tunnel copy is 1 520
// bytes and fragments.
func testbedCapture(tb testing.TB, c testbed.Case) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "run.pcap")
	res, info := testbed.RunMeasured(testbed.Config{Case: c, BufLen: 1460, TotalBytes: 8 << 10, Seed: 1,
		Observe: hydranet.Instruments{Pcap: path}})
	if res.Err != nil || info.ObserveErr != nil {
		tb.Fatalf("%v: %v, %v", c, res.Err, info.ObserveErr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func TestTimelines(t *testing.T) {
	for _, tc := range []struct {
		c    testbed.Case
		segs int
		want string
	}{
		{testbed.CasePrimaryBackup, 6, "192.20.225.20:5001 ← 10.1.0.2:49153: 6 segments, 0 client retransmissions"},
		{testbed.CaseClean, 0, "ft-TCP hops: none, the capture holds no redirector tunnel copy"},
	} {
		f, err := capture.ReadAll(bytes.NewReader(testbedCapture(t, tc.c)))
		if err != nil {
			t.Fatal(err)
		}
		tls := Timelines(f)
		var out strings.Builder
		WriteHops(&out, tls)
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: report lacks %q:\n%s", tc.c, tc.want, out.String())
		}
		for _, tl := range tls {
			if len(tl.Segments) != tc.segs {
				t.Errorf("%v: %d segments, want %d", tc.c, len(tl.Segments), tc.segs)
			}
			for _, s := range tl.Segments {
				if len(s.Copies) != 2 || len(s.Datagrams) != 1 || s.FirstAckAt == 0 {
					t.Errorf("%v: segment %d: copies %v, datagrams %v, first ACK %v: want both fragmented copies, the backup's datagram and an ACK",
						tc.c, uint32(s.Seq), s.Copies, s.Datagrams, s.FirstAckAt)
				}
			}
		}
	}
}

// FuzzTimelines: whatever capture.ReadAll accepts yields timelines and a
// hop report without panicking.
func FuzzTimelines(f *testing.F) {
	f.Add(testbedCapture(f, testbed.CasePrimaryBackup))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if file, err := capture.ReadAll(bytes.NewReader(raw)); err == nil {
			WriteHops(io.Discard, Timelines(file))
		}
	})
}

// The helpers below build capture records by hand: a client, a service, a
// redirector and replicas r1 (the head) and r2 (the tail).
var (
	client  = inet.Endpoint{Addr: inet.MustParseAddr("10.1.0.1"), Port: 49153}
	service = inet.Endpoint{Addr: inet.MustParseAddr("192.20.225.20"), Port: 80}
	rd      = inet.MustParseAddr("10.2.0.9")
	r1, r2  = inet.MustParseAddr("10.2.0.1"), inet.MustParseAddr("10.3.0.1")
)

func ipRec(ts time.Duration, h ipv4.Header, payload []byte) capture.Record {
	h.TTL = max(h.TTL, 64)
	b, err := (&ipv4.Packet{Header: h, Payload: payload}).Marshal()
	if err != nil {
		panic(err)
	}
	return capture.Record{Ts: ts, OrigLen: len(b), Data: b}
}

// segRec is a TCP segment from src to dst carrying n bytes.
func segRec(ts time.Duration, id uint16, src, dst inet.Endpoint, seq, ack tcp.Seq, n int) capture.Record {
	seg := tcp.Segment{SrcPort: src.Port, DstPort: dst.Port, Seq: seq, Ack: ack, Flags: tcp.FlagACK, Payload: make([]byte, n)}
	return ipRec(ts, ipv4.Header{ID: id, Proto: ipv4.ProtoTCP, Src: src.Addr, Dst: dst.Addr}, seg.Marshal(src.Addr, dst.Addr))
}

// multicast is a client transmit, the encap tap's copy for each replica and
// the tunnel copies, all at ts.
func multicast(ts time.Duration, id uint16, seq tcp.Seq, replicas ...inet.Addr) []capture.Record {
	tx := segRec(ts, id, client, service, seq, 1, 100)
	recs := []capture.Record{tx}
	for _, r := range replicas {
		recs = append(recs, tx, ipRec(ts, ipv4.Header{Proto: ipv4.ProtoIPIP, Src: rd, Dst: r}, tx.Data))
	}
	return recs
}

func chainRec(ts time.Duration, from, to inet.Addr, rcvNxt tcp.Seq) capture.Record {
	m := core.ChainMsg{Service: service, Client: client, RcvNxt: rcvNxt}
	return ipRec(ts, ipv4.Header{Proto: ipv4.ProtoUDP, Src: from, Dst: to},
		udp.Marshal(from, to, core.AckChannelPort, core.AckChannelPort, m.Marshal()))
}

func timelines(recs ...[]capture.Record) []*Timeline {
	return Timelines(&capture.File{LinkType: capture.LinkTypeRaw, Records: slices.Concat(recs...)})
}

// TestTimelinesRetransmitsDedupe: a client retransmission is counted, not
// spanned, and its tunnel copies add no hop to the original segment.
func TestTimelinesRetransmitsDedupe(t *testing.T) {
	tls := timelines(
		multicast(10, 1, 1000, r1, r2),
		multicast(20, 2, 1100, r1, r2),
		multicast(30, 3, 1000, r1, r2), // the same segment again
		multicast(40, 4, 1050, r1, r2), // a partial resend below the highest seq
	)
	if len(tls) != 1 || tls[0].Retransmits != 2 || len(tls[0].Segments) != 2 {
		t.Fatalf("timelines %+v, want one with 2 segments and 2 retransmits", tls)
	}
	want := []Hop{{Replica: r1, At: 10}, {Replica: r2, At: 10}}
	if s := tls[0].Segments[0]; s.Seq != 1000 || s.InAt != 10 || s.MulticastAt != 10 || !slices.Equal(s.Copies, want) {
		t.Errorf("first segment %+v, want seq 1000 multicast at 10 with copies %v", s, want)
	}
}

// TestTimelinesSeqWraparound: segments on both sides of the 2³² wrap are
// spanned in order, and one cursor past the wrap covers them both.
func TestTimelinesSeqWraparound(t *testing.T) {
	tls := timelines(
		multicast(10, 1, 0xffff_ffd0, r1, r2),
		multicast(20, 2, 0x34, r1, r2),
		[]capture.Record{
			chainRec(30, r2, r1, 0x98),
			chainRec(31, r2, r1, 0x98), // the redirector's forwarded copy
			segRec(40, 9, service, client, 1, 0x98, 0),
		})
	if len(tls) != 1 || len(tls[0].Segments) != 2 || tls[0].Retransmits != 0 {
		t.Fatalf("timelines %+v, want one with 2 segments", tls)
	}
	for _, s := range tls[0].Segments {
		if want := []Hop{{Replica: r2, To: r1, At: 30}}; !slices.Equal(s.Datagrams, want) || s.FirstAckAt != 40 {
			t.Errorf("segment %#x: datagrams %v, first ACK %v; want %v, 40", uint32(s.Seq), s.Datagrams, s.FirstAckAt, want)
		}
	}
	var out strings.Builder
	WriteHops(&out, tls)
	for _, row := range []string{"chain hop 10.3.0.1 → 10.2.0.1 first ACK", "multicast → 10.3.0.1 datagram", "fan-out step"} {
		if !strings.Contains(out.String(), row) {
			t.Errorf("report lacks %q:\n%s", row, out.String())
		}
	}
}

// TestTimelinesIgnoresOtherTraffic: data nobody tunnels, pure ACKs, UDP on
// other ports and chain messages of unknown connections make no timeline.
func TestTimelinesIgnoresOtherTraffic(t *testing.T) {
	tx := segRec(10, 1, client, service, 1000, 1, 100)
	fwd := tx
	fwd.Data = slices.Clone(tx.Data)
	ipv4.PatchTTL(fwd.Data, 63) // a router's copy: TTL one lower
	if tls := timelines([]capture.Record{
		tx, fwd,
		segRec(20, 2, client, service, 1100, 1, 0),
		segRec(20, 3, client, service, 1100, 1, 0),
		ipRec(30, ipv4.Header{Proto: ipv4.ProtoUDP, Src: r1, Dst: r2}, udp.Marshal(r1, r2, 53, 53, []byte("dns"))),
		chainRec(40, r2, r1, 2000),
	}); len(tls) != 0 {
		t.Errorf("%d timelines from traffic no redirector tunnelled", len(tls))
	}
}
