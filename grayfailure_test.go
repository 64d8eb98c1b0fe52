package hydranet

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"hydranet/internal/icmp"
	"hydranet/internal/scope"
	"hydranet/internal/series"
)

// TestGrayFailureDegradedBeforeDetector is the PR's headline scenario: a
// backup that is slow — not crashed — stalls the acknowledgment chain, and
// the health scorer must flag it Degraded strictly before the paper's
// retransmission-threshold detector raises its first suspicion. The
// detector cannot see the failure until the client has retransmitted
// Threshold times under exponential RTO backoff (seconds); the scorer sees
// the replica's deposit cursor trailing the cluster while retransmissions
// flow, within a few sampling intervals of the first retransmit.
func TestGrayFailureDegradedBeforeDetector(t *testing.T) {
	var suspicions []time.Duration
	var stallAt time.Duration
	in := Instruments{Series: filepath.Join(t.TempDir(), "gray.jsonl"), SampleEvery: 50 * time.Millisecond}
	faultCase{seed: 11, replicas: 3, in: in, threshold: 3, send: make([]byte, 4<<20), setup: func(r *faultRun) {
		r.net.Bus().Subscribe(func(e Event) { suspicions = append(suspicions, e.Time) }, KindSuspicion)
	}, steps: []step{
		// Gray failure: the last backup's CPU degrades to a quarter-second per
		// frame. It stays alive, answers probes eventually, trickles deposits
		// — and strangles the ack chain.
		{after: 400 * time.Millisecond, do: func(r *faultRun) {
			stallAt = r.net.Now()
			r.replicas[2].SetProcessing(250*time.Millisecond, 0)
		}},
		{after: 60 * time.Second},
	}, verdict: verdict{check: func(r *faultRun) {
		// The race starts at the stall: connection-establishment churn can trip
		// the detector spuriously beforehand, so compare reaction times from
		// the moment the gray failure begins.
		var suspicionAt time.Duration
		for _, at := range suspicions {
			if at > stallAt {
				suspicionAt = at
				break
			}
		}
		if suspicionAt == 0 {
			t.Fatal("detector never raised a suspicion after the stall — it did not bite")
		}
		scorer, slow := r.sess.tel.scorer, r.replicas[2]
		degradedAt, ok := scorer.FirstDegradedAt(slow.Name())
		if !ok {
			t.Fatalf("slow replica %s never scored Degraded (verdict %v)",
				slow.Name(), scorer.Verdict(slow.Name()))
		}
		if degradedAt <= stallAt {
			t.Fatalf("degraded at %v, before the stall at %v", degradedAt, stallAt)
		}
		if degradedAt >= suspicionAt {
			t.Fatalf("health scorer flagged degraded at %v, detector suspected at %v — scorer must win",
				degradedAt, suspicionAt)
		}
		t.Logf("stall %v → degraded %v → suspicion %v (scorer led by %v)",
			stallAt, degradedAt, suspicionAt, suspicionAt-degradedAt)

		// Attribution: the healthy primary keeps the cluster-max deposit
		// cursor and must never be blamed for the straggler's lag.
		if at, wrongly := scorer.FirstDegradedAt(r.replicas[0].Name()); wrongly {
			t.Fatalf("primary %s wrongly degraded at %v", r.replicas[0].Name(), at)
		}
	}}}.play(t)
}

// TestSamplerCadenceAndStop: the first tick fires one cadence after the
// sampler starts and each later one a cadence after the last; Stop disarms it.
func TestSamplerCadenceAndStop(t *testing.T) {
	net := New(Config{Seed: 1})
	a := net.AddHost("a", HostConfig{})
	tel := net.startSampler(10*time.Millisecond, nil)
	net.RunFor(35 * time.Millisecond)
	alive := tel.set.Get("host." + a.Name() + ".alive")
	if tel.ticks != 3 || alive.Len() != 3 || !tel.timer.Armed() {
		t.Fatalf("ticks=%d points=%d armed=%v, want 3 ticks (10/20/30ms), still armed", tel.ticks, alive.Len(), tel.timer.Armed())
	}
	for i, want := range []time.Duration{10, 20, 30} {
		if at := alive.At(i).T; at != want*time.Millisecond {
			t.Fatalf("tick %d at %v, want %vms", i, at, want)
		}
	}
	tel.Stop()
	net.RunFor(100 * time.Millisecond)
	if tel.ticks != 3 || tel.timer.Armed() {
		t.Fatalf("sampler ticked after Stop: ticks=%d armed=%v", tel.ticks, tel.timer.Armed())
	}
}

// TestHealthWatchesEveryFTReplica: the health scorer classifies every
// replica of every FT service deployed, each host once, including services
// deployed after the sampler started. Each tick picks up new replicas first,
// so their health series follow the host series and precede the series
// created during the tick.
func TestHealthWatchesEveryFTReplica(t *testing.T) {
	net, _, rd, replicas, _ := ftTopology(Config{Seed: 3}, 3, LinkConfig{})
	tel := net.startSampler(50*time.Millisecond, nil)
	if _, err := net.DeployFT(testSvc, rd, replicas[:2], FTOptions{}, echoAccept()); err != nil {
		t.Fatal(err)
	}
	net.RunFor(120 * time.Millisecond)
	other := ServiceID{Addr: testSvc.Addr, Port: 81}
	if _, err := net.DeployFT(other, rd, replicas[1:], FTOptions{}, echoAccept()); err != nil {
		t.Fatal(err)
	}
	net.RunFor(100 * time.Millisecond)
	tel.Stop()

	var names []string
	tel.set.Each(func(s *series.Series) { names = append(names, s.Name()) })
	var health []string
	firstHealth, firstLazy := -1, -1
	for i, name := range names {
		switch {
		case strings.HasPrefix(name, "health."):
			health = append(health, name)
			if firstHealth < 0 {
				firstHealth = i
			}
		case !strings.HasPrefix(name, "host.") && firstLazy < 0:
			firstLazy = i
		}
	}
	if want := []string{"health.s0", "health.s1", "health.s2"}; !slices.Equal(health, want) {
		t.Fatalf("health series %v, want %v", health, want)
	}
	if firstHealth < 0 || firstLazy < firstHealth {
		t.Fatalf("series order %v: health series must follow the host series and precede the rest", names)
	}
	if tel.set.Get("health.s2").Len() != 2 {
		t.Errorf("health.s2 has %d points, want 2 (ticks at 150 and 200 ms)", tel.set.Get("health.s2").Len())
	}
}

// TestSamplerZeroCostWhenStopped pins the facade's promise: telemetry is
// zero-cost unless a sampler is actively running. A net that had a sampler
// attached, ticking, and then stopped must perform a ping round trip with
// exactly as many heap allocations as a net that never saw one.
func TestSamplerZeroCostWhenStopped(t *testing.T) {
	pingAllocs := func(attach bool) float64 {
		net := New(Config{Seed: 1})
		a := net.AddHost("a", HostConfig{})
		b := net.AddHost("b", HostConfig{})
		net.Link(a, b, LinkConfig{Rate: 100_000_000, Delay: 100 * time.Microsecond})
		net.AutoRoute()
		if attach {
			tel := net.startSampler(time.Millisecond, nil)
			net.RunFor(5 * time.Millisecond) // let it tick for real
			tel.Stop()
		}
		done := func(icmp.EchoResult) {}
		a.Ping(b.Addr(), time.Second, done) // warm stacks and pools
		net.RunFor(50 * time.Millisecond)
		return testing.AllocsPerRun(100, func() {
			a.Ping(b.Addr(), time.Second, done)
			net.RunFor(10 * time.Millisecond)
		})
	}
	base := pingAllocs(false)
	stopped := pingAllocs(true)
	if stopped != base {
		t.Fatalf("round trip with stopped sampler allocates %v/op, baseline %v/op — idle telemetry must add 0",
			stopped, base)
	}
}

// TestSeriesExportIdenticalSeedsDiffClean runs the same seeded failover
// scenario twice, exports both telemetry streams, and requires the
// hydrascope comparison to come back empty — the determinism contract
// extended to the new observability layer. The exports must in fact be
// byte-identical; DiffRuns is additionally exercised because it is what CI
// gates on.
func TestSeriesExportIdenticalSeedsDiffClean(t *testing.T) {
	runOnce := func() []byte {
		payload := make([]byte, 512*1024)
		in := Instruments{Series: filepath.Join(t.TempDir(), "run.jsonl"), SampleEvery: 50 * time.Millisecond}
		faultCase{seed: 5, replicas: 3, in: in, threshold: 3, send: payload, steps: []step{
			{after: 400 * time.Millisecond, do: crashPrimary}, readAll(len(payload), 2*time.Minute),
		}, verdict: verdict{echo: payload}}.play(t)
		return mustRead(t, in.Series)
	}

	exportA, exportB := runOnce(), runOnce()
	if !bytes.Equal(exportA, exportB) {
		t.Error("identical-seed exports differ byte-for-byte")
	}
	runA, err := scope.LoadRun(bytes.NewReader(exportA))
	if err != nil {
		t.Fatal(err)
	}
	runB, err := scope.LoadRun(bytes.NewReader(exportB))
	if err != nil {
		t.Fatal(err)
	}
	if findings := scope.DiffRuns(runA, runB, 0.001); len(findings) != 0 {
		t.Fatalf("identical-seed runs diff dirty: %v", findings)
	}
	if runA.Meta.Failover == nil || !runA.Meta.Failover.Complete {
		t.Fatalf("export missing the completed failover timeline: %+v", runA.Meta.Failover)
	}
}
