package hydranet_test

import (
	"fmt"
	"testing"
	"time"

	"hydranet/internal/testbed"
)

// BenchmarkFigure4 regenerates the paper's only results figure: ttcp
// throughput against write size for the four testbed configurations. The
// custom metric kB/s is the figure's y-axis; allocations and ns/op describe
// the simulator, not the system under test.
func BenchmarkFigure4(b *testing.B) {
	for _, c := range testbed.Figure4Cases {
		for _, size := range testbed.Figure4Sizes {
			b.Run(fmt.Sprintf("%s/%dB", c, size), func(b *testing.B) {
				var tput float64
				for i := 0; i < b.N; i++ {
					res := testbed.Run(testbed.Config{
						Case: c, BufLen: size, TotalBytes: 256 * 1024, Seed: int64(i + 1),
					})
					if res.Err != nil {
						b.Fatalf("transfer failed: %v", res.Err)
					}
					tput = res.ThroughputKBps()
				}
				b.ReportMetric(tput, "kB/s")
				b.ReportMetric(0, "ns/op") // virtual-time experiment; wall time is meaningless
			})
		}
	}
}

// BenchmarkFailoverLatency is ablation A1: detection + resume latency after
// a primary crash, swept over the failure estimator's retransmission
// threshold (the paper's Section 4.3 latency/false-positive trade-off).
func BenchmarkFailoverLatency(b *testing.B) {
	for _, threshold := range []int{1, 2, 3, 4, 6, 8} {
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			var detect, resume time.Duration
			for i := 0; i < b.N; i++ {
				res := testbed.MeasureFailover(testbed.FailoverConfig{
					Threshold: threshold, Seed: int64(i + 1),
				})
				if res.ClientError != nil {
					b.Fatalf("client broke: %v", res.ClientError)
				}
				if res.Detected == 0 || res.Resumed == 0 {
					b.Fatal("failover did not complete")
				}
				detect, resume = res.Detected, res.Resumed
			}
			b.ReportMetric(detect.Seconds()*1000, "detect-ms")
			b.ReportMetric(resume.Seconds()*1000, "resume-ms")
		})
	}
}

// BenchmarkFalsePositives is the other side of the A1 trade-off: with all
// hosts healthy but the links lossy (congestion-like conditions), a lower
// threshold trips the estimator more often. The redirector's liveness
// probe must still prevent wrongful removals at every threshold.
func BenchmarkFalsePositives(b *testing.B) {
	for _, threshold := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			var suspicions uint64
			for i := 0; i < b.N; i++ {
				res := testbed.MeasureFailover(testbed.FailoverConfig{
					Threshold: threshold, Seed: int64(i + 1),
					NoCrash: true, Loss: 0.02,
				})
				if res.FalseReconfigs != 0 {
					b.Fatalf("probe allowed %d wrongful reconfigurations", res.FalseReconfigs)
				}
				suspicions = res.Suspicions
			}
			b.ReportMetric(float64(suspicions), "suspicions")
		})
	}
}

// BenchmarkChainDepth is ablation A2: throughput, and acknowledgment-channel
// messages per transferred kB, as the replica chain grows (the paper measures
// zero and one backup; this extends to three).
func BenchmarkChainDepth(b *testing.B) {
	const total = 256 * 1024
	run := func(b *testing.B, c testbed.Case, backups int) {
		var tput, chainPerKB float64
		for i := 0; i < b.N; i++ {
			res, info := testbed.RunMeasured(testbed.Config{
				Case: c, BufLen: 1024, TotalBytes: total,
				Seed: int64(i + 1), Backups: backups,
			})
			if res.Err != nil {
				b.Fatalf("transfer failed: %v", res.Err)
			}
			tput = res.ThroughputKBps()
			chainPerKB = float64(info.ChainMsgs) / (total / 1e3)
		}
		b.ReportMetric(tput, "kB/s")
		b.ReportMetric(chainPerKB, "chain-msgs/kB")
	}
	b.Run("backups=0", func(b *testing.B) { run(b, testbed.CasePrimaryOnly, 0) })
	for _, n := range []int{1, 2, 3} {
		n := n
		b.Run(fmt.Sprintf("backups=%d", n), func(b *testing.B) {
			run(b, testbed.CasePrimaryBackup, n)
		})
	}
}

// BenchmarkAckChannelLoss is ablation A3: the cost of running the
// acknowledgment channel over unreliable UDP (paper Section 4.3: "trading
// low overhead against ... client re-transmissions if packets on the
// acknowledgement channel are lost").
func BenchmarkAckChannelLoss(b *testing.B) {
	for _, loss := range []float64{0, 0.1, 0.3, 0.6} {
		b.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(b *testing.B) {
			var tput float64
			var rtos uint64
			completed := 0
			for i := 0; i < b.N; i++ {
				res := testbed.Run(testbed.Config{
					Case: testbed.CasePrimaryBackup, BufLen: 1024,
					TotalBytes: 256 * 1024, Seed: int64(i + 1), AckChannelLoss: loss,
				})
				if res.Err != nil {
					// At heavy loss the client's connection can
					// legitimately exhaust its retries — that IS the
					// paper's trade-off; report it instead of failing.
					continue
				}
				completed++
				tput = res.ThroughputKBps()
				rtos = res.Stats.RTOEvents
			}
			b.ReportMetric(tput, "kB/s")
			b.ReportMetric(float64(rtos), "client-RTOs")
			b.ReportMetric(float64(completed)/float64(b.N), "completed-frac")
		})
	}
}

// BenchmarkCongestionEviction is ablation A5: the paper's introduction
// calls for "temporarily shut[ting] down servers when they cause service
// disruption due to congestion". A backup whose acknowledgment channel dies
// stalls the chain; with the eviction policy the transfer completes, while
// without it the client's connection eventually times out.
func BenchmarkCongestionEviction(b *testing.B) {
	for _, strikes := range []int{0, 2, 4} {
		name := fmt.Sprintf("strikes=%d", strikes)
		if strikes == 0 {
			name = "policy-off"
		}
		b.Run(name, func(b *testing.B) {
			var elapsed float64
			completed := true
			for i := 0; i < b.N; i++ {
				res := testbed.MeasureCongestionEviction(strikes, int64(i+1))
				completed = res.Completed
				if res.Completed {
					elapsed = res.Elapsed.Seconds()
				}
			}
			if completed {
				b.ReportMetric(elapsed, "transfer-s")
			} else {
				b.ReportMetric(0, "transfer-s") // stranded
			}
		})
	}
}

// BenchmarkFragmentation is ablation A4: the paper notes throughput drops
// for writes beyond the MTU. Writes above the MSS split into a full segment
// plus a runt, and tunnel encapsulation pushes full-MSS segments past the
// link MTU so the redirector's copies fragment.
func BenchmarkFragmentation(b *testing.B) {
	for _, c := range []testbed.Case{testbed.CaseClean, testbed.CasePrimaryBackup} {
		for _, size := range []int{1024, 1460, 2048, 2920} {
			b.Run(fmt.Sprintf("%s/%dB", c, size), func(b *testing.B) {
				var perWrite float64
				for i := 0; i < b.N; i++ {
					res := testbed.Run(testbed.Config{
						Case: c, BufLen: size, TotalBytes: 256 * 1024, Seed: int64(i + 1),
					})
					if res.Err != nil {
						b.Fatalf("transfer failed: %v", res.Err)
					}
					perWrite = res.ThroughputKBps()
				}
				b.ReportMetric(perWrite, "kB/s")
			})
		}
	}
}
