package hydranet

import (
	"path/filepath"
	"slices"
	"testing"
	"time"

	"hydranet/internal/capture"
	"hydranet/internal/scope"
)

// TestCaptureEndToEnd captures a full FT transfer and round-trips the pcap
// through the in-repo reader: the redirector's IP-in-IP copies (protocol 4)
// and the inner TCP segments must both be visible on the wire, and every
// segment's hops read off it must show the inbound-atomicity ordering — the
// chain tail deposits first, the head only after its acknowledgment arrives.
func TestCaptureEndToEnd(t *testing.T) {
	payload := pattern(64*1024, 13, 0)
	pcap := filepath.Join(t.TempDir(), "run.pcap")
	faultCase{seed: 5, replicas: 2, in: Instruments{Pcap: pcap}, send: payload,
		steps: []step{readAll(len(payload), 2*time.Minute)}, verdict: verdict{echo: payload, check: func(run *faultRun) {
			if run.sum.PcapInner == 0 {
				t.Fatal("no pre-encap inner packets recorded")
			}

			f, err := capture.ReadFile(pcap)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(f.Records)) != run.sum.PcapRecords {
				t.Fatalf("reader found %d records, writer counted %d", len(f.Records), run.sum.PcapRecords)
			}
			var outerIPIP, innerTCP, plainTCP int
			last := time.Duration(-1)
			for i, r := range f.Records {
				if r.Ts < last {
					t.Fatalf("record %d timestamp %v before predecessor %v", i, r.Ts, last)
				}
				last = r.Ts
				if len(r.Data) < 20 || r.Data[0]>>4 != 4 {
					t.Fatalf("record %d is not IPv4: % x", i, r.Data[:min(len(r.Data), 4)])
				}
				fragOffset := (int(r.Data[6])<<8 | int(r.Data[7])) & 0x1fff
				switch r.Data[9] { // protocol
				case 4: // IP-in-IP: the redirector's tunnel copy
					outerIPIP++
					if fragOffset != 0 {
						// A non-first fragment of an oversized tunnel packet: its
						// payload continues the inner packet, no header to parse.
						continue
					}
					inner := r.Data[20:]
					if len(inner) < 20 || inner[0]>>4 != 4 {
						t.Fatalf("record %d inner packet is not IPv4", i)
					}
					if inner[9] == 6 {
						innerTCP++
					}
				case 6:
					plainTCP++
				}
			}
			if outerIPIP == 0 || innerTCP == 0 || plainTCP == 0 {
				t.Fatalf("capture shape: %d IPIP outers (%d wrapping TCP), %d plain TCP — want all three nonzero",
					outerIPIP, innerTCP, plainTCP)
			}

			// The FT chain is [s0 s1]: for every segment the wire shows whole,
			// inbound atomicity demands multicast ≤ the tail's datagram (its
			// deposit) ≤ the head's first ACK (its deposit, gated on that
			// datagram).
			if checked := requireWireOrdering(t, scope.Timelines(f), 2); checked < 5 {
				t.Fatalf("only %d fully-observed segments — not enough to trust the ordering check", checked)
			}
		}}}.play(t)
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
	faultCase{seed: 1, replicas: 3, in: Instruments{Pcap: pcap}, threshold: 3, send: payload,
		steps: []step{readAll(len(payload), 2*time.Minute)}, verdict: verdict{echo: payload, check: func(r *faultRun) {
			f, err := capture.ReadFile(pcap)
			if err != nil {
				t.Fatal(err)
			}
			tls := scope.Timelines(f)
			if len(tls) != 1 || len(tls[0].Segments) == 0 {
				t.Fatalf("%d timelines, want one with segments", len(tls))
			}
			s := tls[0].Segments[0]
			s1, s2 := r.replicas[1].Addr(), r.replicas[2].Addr()
			want := []scope.Hop{{Replica: s2, To: s1, At: 1_012_780_800}, {Replica: s1, To: r.replicas[0].Addr(), At: 1_014_860_800}}
			if uint32(s.Seq) != 3_388_865_230 || s.MulticastAt != 1_010_548_800 || !slices.Equal(s.Datagrams, want) ||
				s.FirstAckAt != 1_016_940_800 {
				t.Errorf("first segment %d: multicast %d, datagrams %v, first ACK %d; want A1c's 3388865230: 1010548800, %v, 1016940800",
					uint32(s.Seq), s.MulticastAt, s.Datagrams, s.FirstAckAt, want)
			}
			if checked := requireWireOrdering(t, tls, 3); checked < 5 {
				t.Errorf("only %d fully-observed segments", checked)
			}
		}}}.play(t)
}

// TestFailoverProbeBackupCrash: killing a *backup* mid-transfer must be
// detected (suspicion, reconfiguration) but never promote anyone — the
// primary is fine — and the probe's report stays incomplete while the
// transfer itself finishes transparently.
func TestFailoverProbeBackupCrash(t *testing.T) {
	// About a second of echo through three replicas: the 400 ms crash lands
	// mid-transfer.
	payload := make([]byte, 1<<20)
	faultCase{seed: 9, replicas: 3, in: Instruments{Failover: true}, threshold: 3, send: payload, steps: []step{
		{after: 400 * time.Millisecond, do: crash(2)}, // the chain tail, not the primary
		readAll(len(payload), 2*time.Minute),
	}, verdict: verdict{echo: payload, check: func(r *faultRun) {
		report := r.sum.Failover
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

		snap := r.net.Snapshot()
		for _, h := range snap.Hosts {
			if h.Manager != nil && h.Manager.Promotions != 0 {
				t.Errorf("host %s recorded %d promotions", h.Name, h.Manager.Promotions)
			}
		}
		if snap.Redirectors[0].Mgmt == nil || snap.Redirectors[0].Mgmt.HostsFailed != 1 {
			t.Errorf("redirector mgmt = %+v, want exactly 1 host failed", snap.Redirectors[0].Mgmt)
		}
	}}}.play(t)
}
