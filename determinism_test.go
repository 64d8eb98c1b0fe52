package hydranet_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/ipv4"
	"hydranet/internal/tcp"
	"hydranet/internal/testbed"
)

// fingerprintRow plays a fixed FT scenario (2 %-lossy links, mid-stream
// primary crash) and returns a fingerprint of everything observable, the
// full snapshot JSON included. Frame poisoning is off unless setup, which
// must not change the simulated workload, turns it on.
func fingerprintRow(t *testing.T, seed int64, setup func(*testbed.Run)) (fp string) {
	row(t, testbed.Scenario{Seed: seed, Replicas: 3, Link: hydranet.LinkConfig{Loss: 0.02}, Send: pattern(120_000, 11, 0),
		Setup: func(r *testbed.Run) {
			r.Net.PoisonFrames(false)
			if setup != nil {
				setup(r)
			}
		},
		Faults: at(400*time.Millisecond, testbed.CrashPrimary, 0),
		Steps:  []testbed.Step{{After: 400*time.Millisecond + 2*time.Minute}},
	}, verdict{echo: true, check: func(r *testbed.Run) {
		fp = fmt.Sprintf("echoed=%d chain=%v events=%d conn=%+v rd=%+v",
			r.Delivered, r.Service.Chain(), r.Net.Scheduler().Fired(), r.Conn.Stats(), r.Redirector.Daemon().Stats())
		for _, h := range r.Replicas {
			fp += fmt.Sprintf(" %s=%+v", h.Name(), h.FTManager().Stats())
		}
		snap, err := r.Net.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		fp += "\n" + string(snap)
	}})
	return fp
}

// TestWholeRunDeterminism: a complete FT scenario — loss, retransmissions,
// suspicion, probing, failover — replays identically from the same seed.
// This is the property that makes every experiment in EXPERIMENTS.md
// reproducible bit for bit. It holds for a Net built right after another and
// for two built at once on two goroutines, as a parallel experiment sweep
// builds them: each Net's PRNG, frame pool, event records and bus live inside
// it, and under -race the concurrent pair shows that they share no state.
func TestWholeRunDeterminism(t *testing.T) {
	a, b := fingerprintRow(t, 77, nil), fingerprintRow(t, 77, nil)
	if a != b {
		t.Fatalf("same seed diverged:\n  run1: %s\n  run2: %s", a, b)
	}
	var together [2]string
	t.Run("together", func(t *testing.T) {
		for i := range together {
			t.Run(fmt.Sprint(i), func(t *testing.T) {
				t.Parallel()
				together[i] = fingerprintRow(t, 77, nil)
			})
		}
	})
	for i, fp := range together {
		if fp != a {
			t.Fatalf("same seed diverged on goroutine %d of 2:\n  run1: %s\n  concurrent: %s", i+1, a, fp)
		}
	}
	if c := fingerprintRow(t, 78, nil); a == c {
		t.Fatal("different seeds produced identical fingerprints — randomness inert")
	}
}

// TestPoolingDeterminism: frame-buffer pooling is invisible. With poisoning
// enabled every released buffer is overwritten before reuse, so this test
// fails if any component reads a frame after returning it to the pool
// (recycled-buffer-observed-after-release): the poisoned bytes would change
// the fingerprint, the snapshot JSON, or the segment trace.
func TestPoolingDeterminism(t *testing.T) {
	run := func(poison bool) (fp string, trace []byte) {
		var tr bytes.Buffer
		fp = fingerprintRow(t, 77, func(r *testbed.Run) {
			r.Net.PoisonFrames(poison)
			for _, h := range append([]*hydranet.Host{r.Client}, r.Replicas...) {
				name := h.Name()
				h.TCP().SetTrace(func(dir string, local, remote hydranet.Endpoint, seg *tcp.Segment) {
					fmt.Fprintf(&tr, "%v %s %s %s %s %s\n", r.Net.Now(), name, dir, local, remote, seg)
				})
			}
		})
		return fp, tr.Bytes()
	}
	clean, trClean := run(false)
	poisoned, trPoison := run(true)
	if clean != poisoned {
		t.Fatalf("pool poisoning changed observable results — a frame is read after release:\n  clean:    %.400s\n  poisoned: %.400s", clean, poisoned)
	}
	if !bytes.Equal(trClean, trPoison) {
		t.Fatal("pool poisoning changed the segment trace — a frame is read after release")
	}
	if len(trClean) == 0 {
		t.Fatal("trace is empty — the comparison is vacuous")
	}
}

// TestScratchPoisonCatchesRetention: parsed headers live in per-stack scratch
// structs with the lifetime of the frame they were parsed from, and poison
// mode scribbles them when the handler returns. A hook that wrongly keeps the
// pointer therefore reads garbage under poison and the last frame's header
// without — so the clean/poisoned comparison TestPoolingDeterminism relies on
// fails, which is how such a bug gets caught. The hooks here seed that bug:
// they keep the *tcp.Segment and *ipv4.Packet they were handed past the call
// and read them after the run.
func TestScratchPoisonCatchesRetention(t *testing.T) {
	run := func(poison bool) (fp, kept string) {
		var seg *tcp.Segment
		var pkt *ipv4.Packet
		fp = fingerprintRow(t, 77, func(r *testbed.Run) {
			r.Net.PoisonFrames(poison)
			r.Client.TCP().SetTrace(func(dir string, _, _ hydranet.Endpoint, s *tcp.Segment) {
				if dir == "in" {
					seg = s
				}
			})
			r.Redirector.Table().SetEncapTap(func(inner *ipv4.Packet, _ hydranet.Addr) { pkt = inner })
		})
		return fp, fmt.Sprintf(" seg %v; inner %s→%s proto %d", seg, pkt.Src, pkt.Dst, pkt.Proto)
	}
	cleanRun, cleanKept := run(false)
	poisonRun, poisonKept := run(true)
	if cleanRun != poisonRun {
		t.Fatal("the retaining hooks only read; the run itself must not change under poison")
	}
	if cleanKept == poisonKept {
		t.Fatalf("retained scratch headers read the same with and without poison — scratch structs are not scribbled:%s", cleanKept)
	}
	scribbled := ipv4.Addr(0xDBDBDBDB).String()
	if !strings.Contains(poisonKept, "inner "+scribbled+"→"+scribbled) || !strings.Contains(poisonKept, fmt.Sprint(uint32(0xDBDBDBDB))) {
		t.Fatalf("poisoned run's retained headers are not the scribble pattern:%s", poisonKept)
	}
	if strings.Contains(cleanKept, scribbled) {
		t.Fatalf("clean run shows the scribble pattern:%s", cleanKept)
	}
}
