package hydranet_test

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/testbed"
)

// TestLeaseDetectsIdleCrash: with heartbeats enabled, a dead primary is
// detected and replaced with NO traffic on the connection at all — closing
// the gap the paper's traffic-driven estimator leaves for idle services.
func TestLeaseDetectsIdleCrash(t *testing.T) {
	row(t, testbed.Scenario{Seed: 131, Replicas: 2, Heartbeat: 500 * time.Millisecond, Send: []byte("before|"),
		Faults: at(2*time.Second, testbed.Crash, 0),
		Steps: []testbed.Step{
			// Total silence from the application; the lease must expire anyway.
			{After: 2*time.Second + 10*time.Second, Do: func(r *testbed.Run) {
				wantChain(t, r, 1)
				if r.Redirector.Daemon().Stats().LeaseExpirations == 0 {
					t.Error("no lease expiration recorded")
				}
				// The promoted backup serves the connection when traffic resumes.
				r.Write([]byte("after"))
			}},
			{After: 30 * time.Second},
		}}, verdict{echo: true})
}

// TestRecommissionKeepsOneHeartbeat: a host's heartbeat timer outlives its
// crash (a dead node just transmits nothing), so recommissioning the host
// must not start a second one. Over 10 idle seconds it sends as many frames
// after the recommission as it did before the crash.
func TestRecommissionKeepsOneHeartbeat(t *testing.T) {
	var before, want uint64
	sent := func(r *testbed.Run) uint64 {
		for _, hs := range r.Net.Snapshot().Hosts {
			if hs.Name == "s1" {
				return hs.Frames.Sent
			}
		}
		t.Fatal("no snapshot for s1")
		return 0
	}
	row(t, testbed.Scenario{Seed: 131, Replicas: 2, Heartbeat: 500 * time.Millisecond, Send: []byte("echoed, then idle"),
		Faults: at(11*time.Second, testbed.Crash, 1),
		Steps: []testbed.Step{
			{After: time.Second, Do: func(r *testbed.Run) { before = sent(r) }},
			{After: 10 * time.Second, Do: func(r *testbed.Run) { want = sent(r) - before }},
			{After: 5 * time.Second, Do: func(r *testbed.Run) { // the lease expires
				r.Replicas[1].Restart()
				if err := r.Service.Recommission(r.Replicas[1]); err != nil {
					t.Fatal(err)
				}
				r.Net.Settle()
				wantChain(t, r, 0, 1)
				before = sent(r)
			}},
			{After: 10 * time.Second, Do: func(r *testbed.Run) {
				if got := sent(r) - before; got != want {
					t.Errorf("s1 sent %d frames in 10 idle seconds after recommission, %d before the crash", got, want)
				}
			}},
		}}, verdict{echo: true})
}

// TestLeaseSweepOrderIsReplayable: one lease sweep that expires the same
// host from several services re-chains each of them — a burst of chain-set
// and mirror datagrams — so the order the daemon walks its services in is
// the order of frames on the wire. Same seed, same pcap, byte for byte.
func TestLeaseSweepOrderIsReplayable(t *testing.T) {
	run := func(path string) []byte {
		heartbeat := 500 * time.Millisecond
		row(t, testbed.Scenario{Seed: 134, Replicas: 2, Heartbeat: heartbeat, Observe: hydranet.Instruments{Pcap: path},
			Send: []byte("echoed, then idle"), Setup: func(r *testbed.Run) {
				for i := 1; i < 8; i++ {
					svc := hydranet.ServiceID{Addr: testSvc.Addr + hydranet.Addr(i), Port: testSvc.Port}
					if _, err := r.Net.DeployFT(svc, r.Redirector, r.Replicas, hydranet.FTOptions{Heartbeat: heartbeat}, app.Echo); err != nil {
						t.Fatal(err)
					}
				}
			}, Faults: at(time.Second, testbed.Crash, 0), Steps: []testbed.Step{{After: 11 * time.Second}},
		}, verdict{echo: true, check: func(r *testbed.Run) {
			if got := r.Redirector.Daemon().Stats().LeaseExpirations; got != 8 {
				t.Fatalf("%d lease expirations, want one per service (8)", got)
			}
		}})
		return mustRead(t, path)
	}
	dir := t.TempDir()
	first := run(filepath.Join(dir, "run0.pcap"))
	for i := 1; i < 6; i++ {
		if again := run(filepath.Join(dir, "again.pcap")); !bytes.Equal(first, again) {
			t.Fatalf("run %d of the same seed captured different frames than run 0", i)
		}
	}
}

// TestLeaseQuietWhenHealthy: heartbeats flowing → nobody expires, even over
// a long idle stretch.
func TestLeaseQuietWhenHealthy(t *testing.T) {
	row(t, testbed.Scenario{Seed: 132, Replicas: 3, Heartbeat: 500 * time.Millisecond, Send: []byte("ping"),
		Steps: []testbed.Step{{After: 5 * time.Minute}}, // a long healthy idle period
	}, verdict{echo: true, chain: []int{0, 1, 2}, check: func(r *testbed.Run) {
		if n := r.Redirector.Daemon().Stats().LeaseExpirations; n != 0 {
			t.Errorf("%d spurious lease expirations", n)
		}
	}})
}

// TestVoluntaryLeaveViaFacade: FTService.Leave resplices the chain and
// promotes the successor when the primary departs, without any client
// disturbance.
func TestVoluntaryLeaveViaFacade(t *testing.T) {
	row(t, testbed.Scenario{Seed: 133, Replicas: 3, Send: []byte("one|"), Steps: []testbed.Step{
		{After: 2 * time.Second, Do: func(r *testbed.Run) {
			if err := r.Service.Leave(r.Replicas[0]); err != nil { // the primary departs
				t.Fatal(err)
			}
			r.Net.Settle()
			wantChain(t, r, 1, 2)
			r.Write([]byte("two"))
		}},
		{After: 60 * time.Second},
	}}, verdict{echo: true, check: func(r *testbed.Run) {
		// Leaving twice (or a stranger) errors cleanly.
		if err := r.Service.Leave(r.Net.AddHost("stranger", hydranet.HostConfig{})); err == nil {
			t.Error("Leave accepted a non-member")
		}
	}})
}
