package core_test

import (
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/core"
	"hydranet/internal/testbed"
)

var svc = hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.20"), Port: 80}

// play plays sc, a run on the Figure-3 star, under the invariant monitor and
// fails the test on each of the run's Problems, with the rules in violated
// broken on purpose.
func play(t *testing.T, sc testbed.Scenario, violated ...string) *testbed.Run {
	t.Helper()
	sc.Observe.Invariants = true
	r := sc.Play()
	for _, p := range r.Problems(violated...) {
		t.Error(p)
	}
	if r.Session == nil {
		t.FailNow() // the observers never attached: nothing ran
	}
	return r
}

// TestChainGatingInvariant samples the chain throughout a transfer and
// asserts the paper's safety property: a replica never deposits (rcvNxt)
// or sends (sndNxt) ahead of its successor.
func TestChainGatingInvariant(t *testing.T) {
	payload := make([]byte, 200*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	violations := 0
	// Every 5 ms, until the echo is back, the chain's cursors for the single
	// connection.
	sample := func(r *testbed.Run) bool {
		type cursors struct{ rcv, snd uint32 }
		var chain []cursors
		for _, h := range r.Replicas {
			conns := h.TCP().Conns()
			if len(conns) != 1 {
				chain = nil
				break
			}
			chain = append(chain, cursors{uint32(conns[0].RcvNxt()), uint32(conns[0].SndNxt())})
		}
		for i := 0; i+1 < len(chain); i++ {
			// S_i must not be ahead of S_{i+1}.
			if int32(chain[i].rcv-chain[i+1].rcv) > 0 {
				violations++
				t.Errorf("deposit gate violated at t=%v: S%d rcvNxt=%d > S%d rcvNxt=%d",
					r.Net.Now(), i, chain[i].rcv, i+1, chain[i+1].rcv)
			}
			if int32(chain[i].snd-chain[i+1].snd) > 0 {
				violations++
				t.Errorf("send gate violated at t=%v: S%d sndNxt=%d > S%d sndNxt=%d",
					r.Net.Now(), i, chain[i].snd, i+1, chain[i+1].snd)
			}
		}
		if violations > 5 {
			t.Fatal("too many violations; aborting")
		}
		return r.Delivered >= len(payload)
	}
	r := play(t, testbed.Scenario{Seed: 11, Replicas: 3, Send: payload,
		Steps: []testbed.Step{{After: 5 * time.Millisecond, Until: sample, Limit: 2 * time.Minute}}})
	if !r.Echoed() {
		t.Fatalf("echo incomplete: %d of %d bytes", r.Delivered, len(payload))
	}
}

// TestBackupsNeverTransmitToClient asserts full suppression: every segment
// the client receives comes from the primary's stack.
func TestBackupsNeverTransmitToClient(t *testing.T) {
	r := play(t, testbed.Scenario{Seed: 12, Replicas: 3, Send: make([]byte, 64*1024), Close: true,
		Steps: []testbed.Step{{After: time.Minute}}})
	if !r.Echoed() {
		t.Fatalf("echo incomplete: %d bytes", r.Delivered)
	}
	for i, h := range r.Replicas[1:] {
		for _, c := range h.TCP().Conns() {
			if c.Stats().SegsSent != 0 {
				t.Errorf("backup %d transmitted %d segments to the client", i+1, c.Stats().SegsSent)
			}
			if c.Stats().SegsSuppressed == 0 {
				t.Errorf("backup %d suppressed nothing — not in the data path", i+1)
			}
		}
	}
}

// TestDetectorFiresOnStall verifies the failure estimator trips after the
// configured number of client retransmissions.
func TestDetectorFiresOnStall(t *testing.T) {
	var before uint64
	r := play(t, testbed.Scenario{Seed: 13, Replicas: 2, Threshold: 3, Send: []byte("data before failure"),
		Faults: []testbed.Fault{{At: 2 * time.Second, Kind: testbed.Crash}},
		Steps: []testbed.Step{
			{After: 2 * time.Second, Do: func(r *testbed.Run) {
				before = r.Replicas[1].FTManager().Stats().Suspicions
				r.Write([]byte("this write will stall"))
			}},
			{After: 30 * time.Second},
		}})
	if got := r.Replicas[1].FTManager().Stats().Suspicions; got <= before {
		t.Fatalf("backup raised no suspicion after primary crash (got %d)", got)
	}
	if len(r.Service.Chain()) != 1 {
		t.Fatalf("chain not reconfigured: %v", r.Service.Chain())
	}
}

// TestDetectorQuietWhenHealthy: a clean long transfer must not trip the
// estimator (no false positives without loss).
func TestDetectorQuietWhenHealthy(t *testing.T) {
	r := play(t, testbed.Scenario{Seed: 14, Replicas: 2, Send: make([]byte, 256*1024), Close: true,
		Steps: []testbed.Step{{After: 2 * time.Minute}}})
	if !r.Echoed() {
		t.Fatalf("echo incomplete: %d bytes", r.Delivered)
	}
	for i, h := range r.Replicas {
		if n := h.FTManager().Stats().Suspicions; n != 0 {
			t.Errorf("replica %d raised %d spurious suspicions", i, n)
		}
	}
	if got := len(r.Service.Chain()); got != 2 {
		t.Errorf("chain shrank to %d without failures", got)
	}
}

// TestChainLossRecovery: dropped acknowledgment-channel messages cost
// retransmissions but not correctness (the paper's stated trade-off).
func TestChainLossRecovery(t *testing.T) {
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	r := play(t, testbed.Scenario{Seed: 15, Replicas: 2, ChainLoss: 0.2, Send: payload,
		Steps: []testbed.Step{{After: 5 * time.Minute}}})
	if !r.Echoed() {
		t.Fatalf("echo with 20%% chain loss incomplete: %d of %d, garbled=%v", r.Delivered, len(payload), r.Garbled)
	}
	// The reconfiguration machinery may have probed, but with all hosts
	// alive nothing must be removed.
	if got := len(r.Service.Chain()); got != 2 {
		t.Errorf("chain = %d members, want 2 (no host actually failed)", got)
	}
}

// TestManagerPortLifecycle exercises SetPortOpt / Port / ClearPort.
func TestManagerPortLifecycle(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 16})
	h := net.AddHost("h", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	net.Link(h, rd.Host, hydranet.LinkConfig{})
	net.AutoRoute()
	mgr := h.FTManager()
	port := mgr.SetPortOpt(svc, core.ModeBackup, core.DetectorParams{})
	if port.Mode() != core.ModeBackup {
		t.Fatal("mode not applied")
	}
	if mgr.Port(svc) != port {
		t.Fatal("Port lookup failed")
	}
	// Re-marking updates in place.
	port2 := mgr.SetPortOpt(svc, core.ModePrimary, core.DetectorParams{})
	if port2 != port || port.Mode() != core.ModePrimary {
		t.Fatal("SetPortOpt did not update existing port")
	}
	mgr.ClearPort(svc)
	if mgr.Port(svc) != nil {
		t.Fatal("ClearPort left state behind")
	}
}
