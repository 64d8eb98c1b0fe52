package core_test

import (
	"bytes"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/core"
	"hydranet/internal/testbed"
)

var svc = hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.20"), Port: 80}

// build constructs the Figure-3 star with n replicas and deploys an echo
// service.
func build(t *testing.T, seed int64, n int, opts hydranet.FTOptions) (
	*hydranet.Net, *hydranet.Host, *hydranet.FTService, []*hydranet.Host) {
	t.Helper()
	r := testbed.Star(hydranet.New(hydranet.Config{Seed: seed}), n, hydranet.LinkConfig{})
	s, err := r.Net.DeployFT(svc, r.Redirector, r.Replicas, opts, app.Echo)
	if err != nil {
		t.Fatal(err)
	}
	r.Net.Settle()
	return r.Net, r.Client, s, r.Replicas
}

// TestChainGatingInvariant samples the chain throughout a transfer and
// asserts the paper's safety property: a replica never deposits (rcvNxt)
// or sends (sndNxt) ahead of its successor.
func TestChainGatingInvariant(t *testing.T) {
	net, client, ftsvc, replicas := build(t, 11, 3, hydranet.FTOptions{})
	conn, err := client.Dial(svc)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 200*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var got []byte
	app.Collect(conn, &got)
	app.Source(conn, payload, false)

	deadline := 2 * time.Minute
	violations := 0
	for elapsed := time.Duration(0); elapsed < deadline && len(got) < len(payload); elapsed += 5 * time.Millisecond {
		net.RunFor(5 * time.Millisecond)
		// Collect per-replica cursors for the single connection.
		type cursors struct{ rcv, snd uint32 }
		var chain []cursors
		for _, h := range replicas {
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
					net.Now(), i, chain[i].rcv, i+1, chain[i+1].rcv)
			}
			if int32(chain[i].snd-chain[i+1].snd) > 0 {
				violations++
				t.Errorf("send gate violated at t=%v: S%d sndNxt=%d > S%d sndNxt=%d",
					net.Now(), i, chain[i].snd, i+1, chain[i+1].snd)
			}
		}
		if violations > 5 {
			t.Fatal("too many violations; aborting")
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo incomplete: %d of %d bytes", len(got), len(payload))
	}
	_ = ftsvc
}

// TestBackupsNeverTransmitToClient asserts full suppression: every segment
// the client receives comes from the primary's stack.
func TestBackupsNeverTransmitToClient(t *testing.T) {
	net, client, ftsvc, replicas := build(t, 12, 3, hydranet.FTOptions{})
	conn, _ := client.Dial(svc)
	var got []byte
	app.Collect(conn, &got)
	payload := make([]byte, 64*1024)
	app.Source(conn, payload, true)
	net.RunFor(time.Minute)
	if len(got) != len(payload) {
		t.Fatalf("echo incomplete: %d bytes", len(got))
	}
	for i, h := range replicas[1:] {
		for _, c := range h.TCP().Conns() {
			if c.Stats().SegsSent != 0 {
				t.Errorf("backup %d transmitted %d segments to the client", i+1, c.Stats().SegsSent)
			}
			if c.Stats().SegsSuppressed == 0 {
				t.Errorf("backup %d suppressed nothing — not in the data path", i+1)
			}
		}
	}
	_ = ftsvc
}

// TestDetectorFiresOnStall verifies the failure estimator trips after the
// configured number of client retransmissions.
func TestDetectorFiresOnStall(t *testing.T) {
	opts := hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: 3}}
	net, client, ftsvc, replicas := build(t, 13, 2, opts)
	conn, _ := client.Dial(svc)
	app.Source(conn, []byte("data before failure"), false)
	net.RunFor(2 * time.Second)

	before := replicas[1].FTManager().Stats().Suspicions
	replicas[0].Crash()
	conn.Write([]byte("this write will stall"))
	net.RunFor(30 * time.Second)
	if got := replicas[1].FTManager().Stats().Suspicions; got <= before {
		t.Fatalf("backup raised no suspicion after primary crash (got %d)", got)
	}
	if len(ftsvc.Chain()) != 1 {
		t.Fatalf("chain not reconfigured: %v", ftsvc.Chain())
	}
}

// TestDetectorQuietWhenHealthy: a clean long transfer must not trip the
// estimator (no false positives without loss).
func TestDetectorQuietWhenHealthy(t *testing.T) {
	net, client, ftsvc, replicas := build(t, 14, 2, hydranet.FTOptions{})
	conn, _ := client.Dial(svc)
	var got []byte
	app.Collect(conn, &got)
	payload := make([]byte, 256*1024)
	app.Source(conn, payload, true)
	net.RunFor(2 * time.Minute)
	if len(got) != len(payload) {
		t.Fatalf("echo incomplete: %d bytes", len(got))
	}
	for i, h := range replicas {
		if n := h.FTManager().Stats().Suspicions; n != 0 {
			t.Errorf("replica %d raised %d spurious suspicions", i, n)
		}
	}
	if got := len(ftsvc.Chain()); got != 2 {
		t.Errorf("chain shrank to %d without failures", got)
	}
}

// TestChainLossRecovery: dropped acknowledgment-channel messages cost
// retransmissions but not correctness (the paper's stated trade-off).
func TestChainLossRecovery(t *testing.T) {
	net, client, ftsvc, replicas := build(t, 15, 2, hydranet.FTOptions{})
	for _, h := range replicas {
		h.FTManager().SetChainLoss(0.2)
	}
	conn, _ := client.Dial(svc)
	var got []byte
	app.Collect(conn, &got)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	app.Source(conn, payload, false)
	net.RunFor(5 * time.Minute)
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo with 20%% chain loss incomplete: %d of %d", len(got), len(payload))
	}
	// The reconfiguration machinery may have probed, but with all hosts
	// alive nothing must be removed.
	if got := len(ftsvc.Chain()); got != 2 {
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
