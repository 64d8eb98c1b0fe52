package hydranet

import (
	"bytes"
	"testing"
	"time"

	"hydranet/internal/prof"
	"hydranet/internal/sim"
)

// TestProfZeroCostWhenDetached pins the zero-cost contract on the scheduler
// hot path: the profiling hooks in At/Step are nil-gated pointer checks, so
// a detached scheduler allocates nothing in steady state — and an attached
// one allocates nothing either, because the edge ring and depth counters are
// preallocated. CI runs this by name; do not rename.
func TestProfZeroCostWhenDetached(t *testing.T) {
	measure := func(attach bool) float64 {
		s := sim.NewScheduler(1)
		if attach {
			s.EnableProfile(sim.NewSchedProf(64, 4))
		}
		nop := func() {}
		cycle := func() {
			s.At(s.Now()+time.Microsecond, nop)
			s.Step()
		}
		// Warm the event-node freelist and heap capacity out of the
		// measurement: steady state is schedule-one/fire-one.
		for i := 0; i < 256; i++ {
			cycle()
		}
		return testing.AllocsPerRun(1000, cycle)
	}
	if a := measure(false); a != 0 {
		t.Errorf("detached scheduler steady state allocates %.1f per event, want 0", a)
	}
	if a := measure(true); a != 0 {
		t.Errorf("attached scheduler steady state allocates %.1f per event, want 0", a)
	}
}

// profArtifacts is one profiled-or-plain scenario run's observables.
type profArtifacts struct {
	pcap    []byte
	fired   uint64
	profile *prof.Profile // nil for a plain run
}

// runProfScenario runs a failover scenario with a capture attached and,
// optionally, the profiler.
func runProfScenario(t *testing.T, profiled bool) profArtifacts {
	t.Helper()
	net, client, rd, replicas := captureTopology(t, 17)
	var pcap bytes.Buffer
	if _, err := net.startCapture(&pcap); err != nil {
		t.Fatal(err)
	}
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 3}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	// Attach after setup settles, as the testbed does: the event and depth
	// baselines then cover exactly the measured transfer.
	var profiler *profiler
	if profiled {
		profiler = net.startProfile("prof parity")
	}

	payload := make([]byte, 512*1024)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	received := streamClient(t, net, client, payload)

	net.RunFor(150 * time.Millisecond)
	svc.CrashPrimary()
	for *received < len(payload) && net.Now() < 2*time.Minute {
		net.RunFor(time.Second)
	}
	if *received != len(payload) {
		t.Fatalf("profiled=%v: client received %d of %d bytes", profiled, *received, len(payload))
	}
	a := profArtifacts{pcap: pcap.Bytes(), fired: net.EventsFired()}
	if profiler != nil {
		a.profile = profiler.Snapshot()
		profiler.Stop()
	}
	return a
}

// TestProfileKeepsOutputsIdentical is hydraprof's non-perturbation proof:
// attaching the profiler changes no simulation observable (pcap bytes,
// events fired), and the causal critical path it reports is the same on
// every run of the scenario.
func TestProfileKeepsOutputsIdentical(t *testing.T) {
	plain := runProfScenario(t, false)
	profiled := runProfScenario(t, true)
	again := runProfScenario(t, true)

	if len(plain.pcap) == 0 {
		t.Fatal("scenario produced no capture bytes")
	}
	if !bytes.Equal(plain.pcap, profiled.pcap) {
		t.Errorf("profiled pcap differs from plain (%d vs %d bytes)", len(profiled.pcap), len(plain.pcap))
	}
	if profiled.fired != plain.fired {
		t.Errorf("profiled run fired %d events, plain run %d", profiled.fired, plain.fired)
	}

	p, q := profiled.profile, again.profile
	if p.Events == 0 || p.Events != q.Events {
		t.Errorf("profiled events: %d then %d (want equal, nonzero)", p.Events, q.Events)
	}
	if p.CriticalPath.Depth == 0 || p.CriticalPath.Depth != q.CriticalPath.Depth {
		t.Errorf("critical-path depth: %d then %d (want equal, nonzero)",
			p.CriticalPath.Depth, q.CriticalPath.Depth)
	}
	if p.CriticalPath.Depth > p.Events {
		t.Errorf("critical path %d longer than the %d events fired", p.CriticalPath.Depth, p.Events)
	}
	if p.CriticalPath.EdgesSeen == 0 || p.CriticalPath.EdgesRecorded == 0 || len(p.CriticalPath.Edges) == 0 {
		t.Errorf("profile sampled no edges: %+v", p.CriticalPath)
	}
}
