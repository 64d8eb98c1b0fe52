package hydranet

import (
	"path/filepath"
	"testing"
	"time"

	"hydranet/internal/capture"
)

// TestCaptureEndToEnd captures a full FT transfer and round-trips the pcap
// through the in-repo reader: the redirector's IP-in-IP copies (protocol 4)
// and the inner TCP segments must both be visible on the wire, and the span
// collector's timeline must show the inbound-atomicity ordering — the chain
// tail deposits first, the head only after its acknowledgment arrives.
func TestCaptureEndToEnd(t *testing.T) {
	payload := pattern(64*1024, 13, 0)
	pcap := filepath.Join(t.TempDir(), "run.pcap")
	faultCase{seed: 5, replicas: 2, in: Instruments{Pcap: pcap, SpanStats: true}, send: payload,
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

			// Span timeline: the FT chain is [s0 s1], so s1 is the tail. For every
			// span both replicas deposited, inbound atomicity demands
			// tail deposit ≤ head chain-arrival ≤ head deposit ≤ client ACK.
			tls := run.sess.spans.Timelines()
			if len(tls) == 0 {
				t.Fatal("no span timelines collected")
			}
			checked := 0
			for _, tl := range tls {
				for _, s := range tl.Spans {
					tail, head := s.Hops["s1"], s.Hops["s0"]
					if tail == nil || head == nil || tail.DepositAt == 0 || head.DepositAt == 0 {
						continue
					}
					if s.MulticastAt == 0 || s.MulticastAt > tail.DepositAt {
						t.Fatalf("span %d: multicast %v after tail deposit %v", s.Seq, s.MulticastAt, tail.DepositAt)
					}
					if tail.DepositAt > head.DepositAt {
						t.Fatalf("span %d: head deposited at %v before tail at %v — inbound atomicity violated",
							s.Seq, head.DepositAt, tail.DepositAt)
					}
					if head.ChainArrivalAt == 0 || head.ChainArrivalAt > head.DepositAt {
						t.Fatalf("span %d: head deposit %v not gated on chain arrival %v",
							s.Seq, head.DepositAt, head.ChainArrivalAt)
					}
					if s.ClientAckAt != 0 && s.ClientAckAt < head.DepositAt {
						t.Fatalf("span %d: client ACK %v before head deposit %v", s.Seq, s.ClientAckAt, head.DepositAt)
					}
					checked++
				}
			}
			if checked < 5 {
				t.Fatalf("only %d fully-observed spans — not enough to trust the ordering check", checked)
			}
			if run.sum.AckChainLag.Count == 0 {
				t.Error("ack-chain lag histogram empty despite full spans")
			}
			if run.sum.DepositStall.Count == 0 {
				t.Error("deposit-stall histogram empty despite full spans")
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
