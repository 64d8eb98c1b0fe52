package hydranet_test

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/scope"
	"hydranet/internal/testbed"
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
	in := hydranet.Instruments{Series: filepath.Join(t.TempDir(), "gray.jsonl"), SampleEvery: 50 * time.Millisecond}
	row(t, testbed.Scenario{Seed: 11, Replicas: 3, Observe: in, Threshold: 3, Send: make([]byte, 4<<20), Setup: func(r *testbed.Run) {
		r.Net.Bus().Subscribe(func(e hydranet.Event) { suspicions = append(suspicions, e.Time) }, hydranet.KindSuspicion)
	}, Steps: []testbed.Step{
		// Gray failure: the last backup's CPU degrades to a quarter-second per
		// frame. It stays alive, answers probes eventually, trickles deposits
		// — and strangles the ack chain.
		{After: 400 * time.Millisecond, Do: func(r *testbed.Run) {
			stallAt = r.Net.Now()
			r.Replicas[2].SetProcessing(250*time.Millisecond, 0)
		}},
		{After: 60 * time.Second},
	}}, verdict{check: func(r *testbed.Run) {
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
		scorer, slow := hydranet.HealthScorer(r.Session), r.Replicas[2]
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
		if at, wrongly := scorer.FirstDegradedAt(r.Replicas[0].Name()); wrongly {
			t.Fatalf("primary %s wrongly degraded at %v", r.Replicas[0].Name(), at)
		}
	}})
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
		in := hydranet.Instruments{Series: filepath.Join(t.TempDir(), "run.jsonl"), SampleEvery: 50 * time.Millisecond}
		row(t, testbed.Scenario{Seed: 5, Replicas: 3, Observe: in, Threshold: 3, Send: payload,
			Faults: at(400*time.Millisecond, testbed.CrashPrimary, 0),
			Steps:  []testbed.Step{{After: 400 * time.Millisecond}, readAll(len(payload), 2*time.Minute)},
		}, verdict{echo: true})
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
