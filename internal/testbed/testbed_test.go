package testbed

import (
	"path/filepath"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/capture"
	"hydranet/internal/ipv4"
	"hydranet/internal/scope"
	"hydranet/internal/tcp"
)

func runPoint(t *testing.T, c Case, size int) float64 {
	t.Helper()
	res, _ := RunMeasured(Config{Case: c, BufLen: size, TotalBytes: 128 * 1024, Seed: 1})
	if res.Err != nil {
		t.Fatalf("%v @%dB failed: %v", c, size, res.Err)
	}
	tp := res.ThroughputKBps()
	if tp <= 0 {
		t.Fatalf("%v @%dB: zero throughput", c, size)
	}
	return tp
}

func TestFigure4Ordering(t *testing.T) {
	// The paper's qualitative result at a representative size: throughput
	// ordering clean >= no-redirection > primary-only > primary+backup,
	// with the FT penalty "not unreasonably" large.
	size := 1024
	clean := runPoint(t, CaseClean, size)
	noRedir := runPoint(t, CaseNoRedirection, size)
	primary := runPoint(t, CasePrimaryOnly, size)
	ft := runPoint(t, CasePrimaryBackup, size)

	if noRedir > clean*1.01 {
		t.Errorf("no-redirection (%.0f) beats clean (%.0f)", noRedir, clean)
	}
	if primary >= noRedir {
		t.Errorf("primary-only (%.0f) not below no-redirection (%.0f)", primary, noRedir)
	}
	if ft >= primary {
		t.Errorf("primary+backup (%.0f) not below primary-only (%.0f)", ft, primary)
	}
	if ft < clean*0.25 {
		t.Errorf("FT mode collapsed: %.0f vs clean %.0f", ft, clean)
	}
}

func TestFigure4Monotonicity(t *testing.T) {
	// Throughput rises with packet size in every configuration (the
	// figure's dominant trend).
	for _, c := range Figure4Cases {
		prev := 0.0
		for _, size := range []int{16, 128, 1024} {
			tp := runPoint(t, c, size)
			if tp <= prev {
				t.Errorf("%v: throughput not rising: %d B → %.1f (prev %.1f)", c, size, tp, prev)
			}
			prev = tp
		}
	}
}

func TestChainDepthCostsThroughput(t *testing.T) {
	// Ablation A2: each extra backup costs throughput (one more multicast
	// copy through the redirector plus a longer gating chain).
	one, _ := RunMeasured(Config{Case: CasePrimaryBackup, BufLen: 1024, TotalBytes: 128 * 1024, Seed: 1, Backups: 1})
	three, _ := RunMeasured(Config{Case: CasePrimaryBackup, BufLen: 1024, TotalBytes: 128 * 1024, Seed: 1, Backups: 3})
	if one.Err != nil || three.Err != nil {
		t.Fatalf("errs: %v %v", one.Err, three.Err)
	}
	if three.ThroughputKBps() >= one.ThroughputKBps() {
		t.Errorf("3 backups (%.0f) not slower than 1 (%.0f)",
			three.ThroughputKBps(), one.ThroughputKBps())
	}
}

// TestFanOutStepIsTheRouterCost reads A2's per-replica cost straight off a
// capture: each further tunnel copy of a 1024-byte segment leaves the 486
// redirector one copy's CPU time after the one before it, the per-packet
// cost plus the redirector software plus the per-byte cost of the 1 084-byte
// IP-in-IP packet (250 + 25 + 1 084 × 0.75 = 1 088 µs).
func TestFanOutStepIsTheRouterCost(t *testing.T) {
	pcap := filepath.Join(t.TempDir(), "a2.pcap")
	res, _ := RunMeasured(Config{Case: CasePrimaryBackup, BufLen: 1024, TotalBytes: 64 * 1024, Seed: 1, Backups: 2,
		Observe: hydranet.Instruments{Pcap: pcap}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	f, err := capture.ReadFile(pcap)
	if err != nil {
		t.Fatal(err)
	}
	want := router486Proc + redirectorSWCost + time.Duration(2*ipv4.HeaderLen+tcp.HeaderLen+1024)*router486PerByte
	if want != 1088*time.Microsecond {
		t.Fatalf("machine constants give a %v step, want 1.088ms", want)
	}
	tls := scope.Timelines(f)
	if len(tls) != 1 || len(tls[0].Segments) != 64 {
		t.Fatalf("%d timelines, want one of 64 segments", len(tls))
	}
	for _, s := range tls[0].Segments {
		if len(s.Copies) != 3 {
			t.Fatalf("segment %d: %d tunnel copies, want 3", uint32(s.Seq), len(s.Copies))
		}
		for i := 1; i < len(s.Copies); i++ {
			if step := s.Copies[i].At - s.Copies[i-1].At; step != want {
				t.Errorf("segment %d: copy %d left %v after copy %d, want %v", uint32(s.Seq), i, step, i-1, want)
			}
		}
	}
}

func TestAckChannelLossDegradesButCompletes(t *testing.T) {
	// Ablation A3: the paper's UDP-channel trade-off — acknowledgment-
	// channel loss costs client retransmissions and throughput, never
	// correctness. Moderate loss is absorbed by the channel's natural
	// redundancy (every deposit and every suppressed segment re-reports
	// the cursors); heavy loss surfaces as client timeouts.
	clean, _ := RunMeasured(Config{Case: CasePrimaryBackup, BufLen: 1024, TotalBytes: 64 * 1024, Seed: 1})
	moderate, _ := RunMeasured(Config{Case: CasePrimaryBackup, BufLen: 1024, TotalBytes: 64 * 1024, Seed: 1,
		AckChannelLoss: 0.3})
	heavy, _ := RunMeasured(Config{Case: CasePrimaryBackup, BufLen: 1024, TotalBytes: 64 * 1024, Seed: 1,
		AckChannelLoss: 0.6})
	if clean.Err != nil || moderate.Err != nil || heavy.Err != nil {
		t.Fatalf("errs: %v %v %v", clean.Err, moderate.Err, heavy.Err)
	}
	if moderate.Bytes != clean.Bytes || heavy.Bytes != clean.Bytes {
		t.Fatalf("bytes moved: clean=%d moderate=%d heavy=%d",
			clean.Bytes, moderate.Bytes, heavy.Bytes)
	}
	if moderate.ThroughputKBps() < clean.ThroughputKBps()*0.8 {
		t.Errorf("moderate loss should be largely absorbed: %.0f vs %.0f",
			moderate.ThroughputKBps(), clean.ThroughputKBps())
	}
	if heavy.ThroughputKBps() >= clean.ThroughputKBps()*0.7 {
		t.Errorf("heavy loss did not cost throughput: %.0f vs %.0f",
			heavy.ThroughputKBps(), clean.ThroughputKBps())
	}
	if heavy.Stats.RTOEvents == 0 && heavy.Stats.Retransmits == 0 {
		t.Error("heavy ack-channel loss caused no client retransmissions")
	}
}

// TestFailoverDetectsAndResumes: the primary dies mid-stream, the backup is
// promoted, and the whole 4 MiB echo still reaches the client. Resumed is the
// first byte after the crash, and that can be a segment the primary sent
// before it: at seed 1 one arrives 5.5 ms after the crash, detection takes
// 1.59 s. So the test holds the promoted replica to delivering the rest of the
// stream, not Resumed to following Detected.
func TestFailoverDetectsAndResumes(t *testing.T) {
	res := MeasureFailover(FailoverConfig{Threshold: 3, Seed: 1})
	if res.ClientError != nil {
		t.Fatalf("client connection broke: %v", res.ClientError)
	}
	if res.Detected == 0 {
		t.Fatal("failure never detected")
	}
	if res.Resumed == 0 {
		t.Fatal("stream never resumed")
	}
	if res.Delivered != 4<<20 {
		t.Errorf("client received %d of %d echoed bytes after the fail-over", res.Delivered, 4<<20)
	}
	if res.FalseReconfigs != 0 {
		t.Errorf("%d false reconfigurations", res.FalseReconfigs)
	}
}

func TestFailoverLatencyGrowsWithThreshold(t *testing.T) {
	low := MeasureFailover(FailoverConfig{Threshold: 1, Seed: 2})
	high := MeasureFailover(FailoverConfig{Threshold: 6, Seed: 2})
	if low.Detected == 0 || high.Detected == 0 {
		t.Fatalf("detection missing: low=%v high=%v", low.Detected, high.Detected)
	}
	if high.Detected <= low.Detected {
		t.Errorf("threshold 6 detected in %v, not slower than threshold 1 (%v)",
			high.Detected, low.Detected)
	}
}
