package hydranet_test

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/capture"
	"hydranet/internal/ipv4"
	"hydranet/internal/scope"
	"hydranet/internal/testbed"
)

// TestCaptureEndToEnd captures a full FT transfer and round-trips the pcap
// through the in-repo reader: the redirector's IP-in-IP copies (protocol 4)
// and the inner TCP segments must both be visible on the wire, and every
// segment's hops read off it must show the inbound-atomicity ordering — the
// chain tail deposits first, the head only after its acknowledgment arrives.
func TestCaptureEndToEnd(t *testing.T) {
	payload := pattern(64*1024, 13, 0)
	pcap := filepath.Join(t.TempDir(), "run.pcap")
	row(t, testbed.Scenario{Seed: 5, Replicas: 2, Observe: hydranet.Instruments{Pcap: pcap}, Send: payload,
		Steps: []testbed.Step{readAll(len(payload), 2*time.Minute)}}, verdict{echo: true, check: func(run *testbed.Run) {
		f := requireWellFormedPcap(t, pcap)
		if uint64(len(f.Records)) != run.Summary.PcapRecords || run.Summary.PcapInner == 0 {
			t.Fatalf("reader found %d records, writer counted %d (%d pre-encap inner)",
				len(f.Records), run.Summary.PcapRecords, run.Summary.PcapInner)
		}
		var innerTCP, plainTCP int
		for _, r := range f.Records {
			first := (int(r.Data[6])<<8|int(r.Data[7]))&0x1fff == 0
			switch p := r.Data[9]; {
			case p == ipv4.ProtoTCP:
				plainTCP++
			case p == ipv4.ProtoIPIP && first && r.Data[ipv4.HeaderLen+9] == ipv4.ProtoTCP:
				innerTCP++
			}
		}
		if innerTCP == 0 || plainTCP == 0 {
			t.Fatalf("capture shape: %d tunnel copies wrapping TCP, %d plain TCP — want both nonzero", innerTCP, plainTCP)
		}

		// The FT chain is [s0 s1]: for every segment the wire shows whole,
		// inbound atomicity demands multicast ≤ the tail's datagram (its
		// deposit) ≤ the head's first ACK (its deposit, gated on that
		// datagram).
		if checked := requireWireOrdering(t, scope.Timelines(f), 2); checked < 5 {
			t.Fatalf("only %d fully-observed segments — not enough to trust the ordering check", checked)
		}
	}})
}

// requireWireOrdering checks inbound atomicity on every segment of tls: each
// backup's datagram comes at or after the multicast and at or before its
// predecessor's datagram, or the service's first ACK when the predecessor is
// the head. It returns how many segments showed all replicas-1 datagrams and
// a first ACK.
func requireWireOrdering(t *testing.T, tls []*scope.Timeline, replicas int) (checked int) {
	t.Helper()
	if len(tls) == 0 {
		t.Fatal("no timelines read off the capture")
	}
	for _, tl := range tls {
		for _, s := range tl.Segments {
			for _, d := range s.Datagrams {
				next := s.FirstAckAt
				for _, p := range s.Datagrams {
					if p.Replica == d.To {
						next = p.At
					}
				}
				if d.At < s.MulticastAt || next != 0 && next < d.At {
					t.Fatalf("segment %d: %s's datagram at %v, multicast %v, %s's deposit %v — inbound atomicity violated",
						uint32(s.Seq), d.Replica, d.At, s.MulticastAt, d.To, next)
				}
			}
			if len(s.Datagrams) == replicas-1 && s.FirstAckAt != 0 {
				checked++
			}
		}
	}
	return checked
}

// TestA1cSpanFromPcap: EXPERIMENTS.md A1c's example span, read off the
// capture of the seed-1, three-replica star — the chain tail s2 deposits
// first, then s1, then the head s0 acknowledges, one ~2 ms beat apart.
func TestA1cSpanFromPcap(t *testing.T) {
	payload := make([]byte, 64*1024)
	pcap := filepath.Join(t.TempDir(), "run.pcap")
	row(t, testbed.Scenario{Seed: 1, Replicas: 3, Observe: hydranet.Instruments{Pcap: pcap}, Threshold: 3, Send: payload,
		Steps: []testbed.Step{readAll(len(payload), 2*time.Minute)}}, verdict{echo: true, check: func(r *testbed.Run) {
		f, err := capture.ReadFile(pcap)
		if err != nil {
			t.Fatal(err)
		}
		tls := scope.Timelines(f)
		if len(tls) != 1 || len(tls[0].Segments) == 0 {
			t.Fatalf("%d timelines, want one with segments", len(tls))
		}
		s := tls[0].Segments[0]
		s1, s2 := r.Replicas[1].Addr(), r.Replicas[2].Addr()
		want := []scope.Hop{{Replica: s2, To: s1, At: 1_012_780_800}, {Replica: s1, To: r.Replicas[0].Addr(), At: 1_014_860_800}}
		if uint32(s.Seq) != 3_388_865_230 || s.MulticastAt != 1_010_548_800 || !slices.Equal(s.Datagrams, want) ||
			s.FirstAckAt != 1_016_940_800 {
			t.Errorf("first segment %d: multicast %d, datagrams %v, first ACK %d; want A1c's 3388865230: 1010548800, %v, 1016940800",
				uint32(s.Seq), s.MulticastAt, s.Datagrams, s.FirstAckAt, want)
		}
		if checked := requireWireOrdering(t, tls, 3); checked < 5 {
			t.Errorf("only %d fully-observed segments", checked)
		}
	}})
}

// TestFailoverProbeBackupCrash: killing a *backup* mid-transfer must be
// detected (suspicion, reconfiguration) but never promote anyone — the
// primary is fine — and the probe's report stays incomplete while the
// transfer itself finishes transparently.
func TestFailoverProbeBackupCrash(t *testing.T) {
	// About a second of echo through three replicas: the 400 ms crash lands
	// mid-transfer.
	payload := make([]byte, 1<<20)
	row(t, testbed.Scenario{Seed: 9, Replicas: 3, Observe: hydranet.Instruments{Failover: true}, Threshold: 3, Send: payload,
		Faults: at(400*time.Millisecond, testbed.Crash, 2), // the chain tail, not the primary
		Steps:  []testbed.Step{{After: 400 * time.Millisecond}, readAll(len(payload), 2*time.Minute)},
	}, verdict{echo: true, check: func(r *testbed.Run) {
		report := r.Summary.Failover
		if report.CrashAt == 0 {
			t.Fatal("probe missed the crash")
		}
		if report.SuspicionAt == 0 || report.ReconfigAt == 0 {
			t.Fatalf("backup failure never detected: %+v", report)
		}
		if report.PromotionAt != 0 {
			t.Fatalf("backup crash caused a promotion at %v — only primary loss promotes", report.PromotionAt)
		}
		if report.Complete {
			t.Fatalf("report complete without a promotion: %+v", report)
		}

		snap := r.Net.Snapshot()
		for _, h := range snap.Hosts {
			if h.Manager != nil && h.Manager.Promotions != 0 {
				t.Errorf("host %s recorded %d promotions", h.Name, h.Manager.Promotions)
			}
		}
		if snap.Redirectors[0].Mgmt == nil || snap.Redirectors[0].Mgmt.HostsFailed != 1 {
			t.Errorf("redirector mgmt = %+v, want exactly 1 host failed", snap.Redirectors[0].Mgmt)
		}
	}})
}

// TestInstrumentEverythingOn runs the capture fail-over scenario with every
// observer named: Finish must leave both artifacts on disk, each
// readable by the in-repo loader the tools use, report a clean audit and a
// complete fail-over — and the other observers must not change one byte of
// what the capture saw.
func TestInstrumentEverythingOn(t *testing.T) {
	dir := t.TempDir()
	in := hydranet.Instruments{
		Scenario: "everything on",
		Pcap:     filepath.Join(dir, "run.pcap"),
		Audit:    filepath.Join(dir, "run.audit.json"),
		Failover: true,
	}
	captureRow(t, in, func(r *testbed.Run) {
		sum := r.Summary
		if sum.Audit == nil || !sum.Audit.Clean {
			t.Fatalf("audit = %+v, want clean", sum.Audit)
		}
		if fo := sum.Failover; !fo.Complete || fo.CrashAt != 1300*time.Millisecond {
			t.Errorf("fail-over report %+v, want complete with the crash at 1.3s", fo)
		}

		// Two counts of the same frames: the capture's records less its
		// inner copies, and the link counters the audit's census reads.
		var linkBytes uint64
		for _, l := range r.Links {
			b := l.TxBytes()
			linkBytes += b[0] + b[1]
		}
		if a := sum.Audit; sum.PcapRecords-sum.PcapInner != a.Frames || a.FrameBytes != linkBytes {
			t.Errorf("pcap holds %d frames (%d records, %d inner), audit counts %d; links sent %d bytes, audit counts %d",
				sum.PcapRecords-sum.PcapInner, sum.PcapRecords, sum.PcapInner, a.Frames, linkBytes, a.FrameBytes)
		}

		f := requireWellFormedPcap(t, in.Pcap)
		if n := len(f.Records); uint64(n) != sum.PcapRecords || sum.PcapInner == 0 {
			t.Errorf("pcap holds %d records, Summary says %d (%d inner)", n, sum.PcapRecords, sum.PcapInner)
		}
		if tls := scope.Timelines(f); len(tls) != 1 || len(tls[0].Segments) == 0 {
			t.Errorf("%d FT timelines read off the pcap, want one with segments", len(tls))
		}
		if a, err := scope.LoadAuditFile(in.Audit); err != nil || !a.Clean || a.Scenario != in.Scenario {
			t.Errorf("audit file: %v", err)
		}
	})

	// The monitor is on in both runs: the golden capture hashes, recorded
	// without one, pin that it changes no byte either.
	alone := hydranet.Instruments{Pcap: filepath.Join(dir, "alone.pcap")}
	captureRow(t, alone, nil)
	if !bytes.Equal(mustRead(t, in.Pcap), mustRead(t, alone.Pcap)) {
		t.Error("the pcap of the everything-on run differs from the pcap-only run's")
	}
}

// requireWellFormedPcap reads a capture back with the in-repo reader and
// checks what every pcap of the fabric must be: LINKTYPE_RAW, timestamps
// that never decrease, an IPv4 header on every record, and an IPv4 packet
// inside every first-fragment IP-in-IP record, of which there is at least
// one (the redirector's tunnel copies). It returns what it read.
func requireWellFormedPcap(t *testing.T, path string) *capture.File {
	t.Helper()
	f, err := capture.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.LinkType != capture.LinkTypeRaw {
		t.Fatalf("%s: linktype %d, want %d (LINKTYPE_RAW)", path, f.LinkType, capture.LinkTypeRaw)
	}
	ipip := 0
	last := time.Duration(-1)
	for i, r := range f.Records {
		if r.Ts < last {
			t.Fatalf("%s: record %d: timestamp %v before predecessor %v", path, i, r.Ts, last)
		}
		last = r.Ts
		if len(r.Data) < ipv4.HeaderLen || r.Data[0]>>4 != 4 {
			t.Fatalf("%s: record %d: not an IPv4 packet", path, i)
		}
		if fragOffset := (int(r.Data[6])<<8 | int(r.Data[7])) & 0x1fff; fragOffset != 0 || r.Data[9] != ipv4.ProtoIPIP {
			continue // a fragment continuation has no inner header
		}
		ipip++
		if inner := r.Data[ipv4.HeaderLen:]; len(inner) < ipv4.HeaderLen || inner[0]>>4 != 4 {
			t.Fatalf("%s: record %d: IP-in-IP payload is not IPv4", path, i)
		}
	}
	if ipip == 0 {
		t.Fatalf("%s: %d records, none of them a tunnel copy", path, len(f.Records))
	}
	return f
}

// TestFinishSurfacesPcapError: a capture whose destination stops accepting
// writes mid-run must not end as a silently truncated file.
func TestFinishSurfacesPcapError(t *testing.T) {
	payload := make([]byte, 16*1024)
	row(t, testbed.Scenario{Seed: 3, Replicas: 2, Observe: hydranet.Instruments{Pcap: filepath.Join(t.TempDir(), "run.pcap")},
		Send:  payload,
		Setup: func(r *testbed.Run) { hydranet.ClosePcap(r.Session) }, // the disk "fills": every later write fails
		Steps: []testbed.Step{readAll(len(payload), time.Minute)}}, verdict{echo: true, finishErr: "pcap"})
}
