package hydranet_test

import (
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/testbed"
	"hydranet/internal/ttcp"
)

// TestCongestedBackupEvictedAndRecommissioned exercises the paper's
// congestion story end to end: a backup whose acknowledgment channel is
// effectively dead (severe congestion) stalls the whole chain; with the
// congestion policy enabled the redirector "shuts it down" (evicts it), the
// flow recovers, and once the congestion clears the server rejoins.
func TestCongestedBackupEvictedAndRecommissioned(t *testing.T) {
	var rejoined *testbed.Stream
	row(t, testbed.Scenario{Seed: 61, Replicas: 2, Threshold: 2, Strikes: 3, Send: pattern(150_000, 1, 0),
		// Severe congestion at the backup: its chain messages all vanish, so
		// the primary can never acknowledge.
		Faults: at(100*time.Millisecond, testbed.Silence, 1),
		Steps: []testbed.Step{
			{After: 100*time.Millisecond + 3*time.Minute, Do: func(r *testbed.Run) {
				if !r.Echoed() {
					t.Fatalf("transfer stalled at %d bytes despite congestion eviction", r.Delivered)
				}
				wantChain(t, r, 0)
				if r.Redirector.Daemon().Stats().CongestionEvictions == 0 {
					t.Error("eviction not recorded as congestion-based")
				}
				if !r.Replicas[1].Alive() {
					t.Error("test invariant: the evicted backup is alive, just congested")
				}
				// Congestion clears; the server rejoins for new connections.
				r.Replicas[1].FTManager().SetChainLoss(0)
				if err := r.Service.Recommission(r.Replicas[1]); err != nil {
					t.Fatal(err)
				}
				r.Net.Settle()
				wantChain(t, r, 0, 1)
				rejoined = r.Dial(r.Client, testSvc, []byte("back in business"), false)
			}},
			{After: 10 * time.Second},
		}}, verdict{echo: true, check: func(r *testbed.Run) {
		if !rejoined.Echoed() {
			t.Errorf("echo after rejoin: %d bytes, garbled=%v", rejoined.Delivered, rejoined.Garbled)
		}
		// The rejoined backup replicates the new connection (it may also
		// still track a stale entry for the pre-eviction connection, which it
		// can no longer observe — the host never crashed, so that state
		// lingers until the old connection's client endpoint is reused or
		// the host reboots).
		for _, c := range r.Replicas[1].TCP().Conns() {
			if c.Remote() == rejoined.Conn.Local() {
				return
			}
		}
		t.Error("rejoined backup is not replicating the new connection")
	}})
}

// TestCongestionPolicyDisabledByDefault: without the policy, live hosts are
// never evicted no matter how many suspicions fire. The client stops reading
// on purpose, as the hand-built test it replaced did: the run is its upload
// against a dead acknowledgment channel, so the audit's client-delivery rule
// has nothing to check (TestReplicaStreamAgreementUnderLoss checks it).
func TestCongestionPolicyDisabledByDefault(t *testing.T) {
	row(t, testbed.Scenario{Seed: 62, Replicas: 2, Threshold: 2, Send: make([]byte, 100_000),
		Faults: at(100*time.Millisecond, testbed.Silence, 1),
		Steps: []testbed.Step{
			{Do: func(r *testbed.Run) { r.Conn.OnReadable(nil) }}, // the client never reads its echo
			{After: 100*time.Millisecond + 2*time.Minute},
		}}, verdict{chain: []int{0, 1}, check: func(r *testbed.Run) {
		if r.Redirector.Daemon().Stats().Suspicions == 0 {
			t.Error("scenario inert: no suspicions despite a dead ack channel")
		}
	}})
}

// TestProbeKeepsQueuedMember: queueing is not loss. A bulk flow to the
// primary's own address fills the redirector's 64-KiB queue toward it, so a
// ping waits behind tens of kilobytes at the link's rate: longer than all
// four attempts timed from the round trip measured while the link was idle.
// Chain loss raises suspicions. While the probe is open the redirector
// forwards the primary's acknowledgments of both flows, and that heard-from
// evidence must keep the live primary in the chain.
func TestProbeKeepsQueuedMember(t *testing.T) {
	for _, rate := range []int64{500_000, 1_000_000, 2_000_000} {
		net := hydranet.New(hydranet.Config{Seed: 71})
		client := net.AddHost("client", hydranet.HostConfig{})
		rd := net.AddRedirector("rd", hydranet.HostConfig{})
		replicas := []*hydranet.Host{net.AddHost("s0", hydranet.HostConfig{}), net.AddHost("s1", hydranet.HostConfig{})}
		lan := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
		net.Link(client, rd.Host, lan)
		net.Link(replicas[0], rd.Host, hydranet.LinkConfig{Rate: rate, Delay: time.Millisecond, QueueBytes: 64 << 10})
		net.Link(replicas[1], rd.Host, lan)
		net.AutoRoute()
		svc, err := net.DeployFT(testSvc, rd, replicas, hydranet.FTOptions{}, app.Echo)
		if err != nil {
			t.Fatal(err)
		}
		net.Settle()
		reconfigs := 0
		rd.Daemon().OnReconfig(func(hydranet.ServiceID, []hydranet.Addr) { reconfigs++ })

		lst, err := replicas[0].Listen(0, 9)
		if err != nil {
			t.Fatal(err)
		}
		lst.SetAcceptFunc(func(c *hydranet.Conn) { ttcp.Sink(c) })
		bulk, _ := client.DialEndpoint(hydranet.Endpoint{Addr: replicas[0].Addr(), Port: 9})
		app.Source(bulk, make([]byte, 8<<20), false)
		for _, h := range replicas {
			h.FTManager().SetChainLoss(0.9)
		}
		conn, _ := client.Dial(testSvc)
		app.Source(conn, make([]byte, 64<<10), false)
		net.RunFor(time.Minute)

		if rd.Daemon().Stats().Suspicions == 0 {
			t.Fatalf("%d bit/s: chain loss provoked no suspicion — the scenario is inert", rate)
		}
		if chain := svc.Chain(); len(chain) != 2 || reconfigs != 0 {
			t.Errorf("%d bit/s: live member removed: chain %v after %d reconfigurations", rate, chain, reconfigs)
		}
	}
}
