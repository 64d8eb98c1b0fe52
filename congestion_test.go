package hydranet

import (
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/rmp"
	"hydranet/internal/ttcp"
)

// TestCongestedBackupEvictedAndRecommissioned exercises the paper's
// congestion story end to end: a backup whose acknowledgment channel is
// effectively dead (severe congestion) stalls the whole chain; with the
// congestion policy enabled the redirector "shuts it down" (evicts it), the
// flow recovers, and once the congestion clears the server rejoins.
func TestCongestedBackupEvictedAndRecommissioned(t *testing.T) {
	payload := pattern(150_000, 1, 0)
	var rejoined *stream
	faultCase{seed: 61, replicas: 2, threshold: 2, send: payload, setup: func(r *faultRun) {
		r.rd.Daemon().SetCongestionPolicy(rmp.CongestionPolicy{Strikes: 3, Window: 2 * time.Minute})
	}, steps: []step{
		// Severe congestion at the backup: its chain messages all vanish, so
		// the primary can never acknowledge.
		{after: 100 * time.Millisecond, do: func(r *faultRun) { r.replicas[1].FTManager().SetChainLoss(1) }},
		{after: 3 * time.Minute, do: func(r *faultRun) {
			if len(r.got) != len(payload) {
				t.Fatalf("transfer stalled at %d of %d despite congestion eviction", len(r.got), len(payload))
			}
			r.wantChain(0)
			if r.rd.Daemon().Stats().CongestionEvictions == 0 {
				t.Error("eviction not recorded as congestion-based")
			}
			if !r.replicas[1].Alive() {
				t.Error("test invariant: the evicted backup is alive, just congested")
			}
			// Congestion clears; the server rejoins for new connections.
			r.replicas[1].FTManager().SetChainLoss(0)
			if err := r.svc.Recommission(r.replicas[1]); err != nil {
				t.Fatal(err)
			}
			r.net.Settle()
			r.wantChain(0, 1)
			rejoined = r.dial(r.client, testSvc, []byte("back in business"), false)
		}},
		{after: 10 * time.Second},
	}, verdict: verdict{echo: payload, check: func(r *faultRun) {
		if string(rejoined.got) != "back in business" {
			t.Errorf("echo after rejoin = %q", rejoined.got)
		}
		// The rejoined backup replicates the new connection (it may also
		// still track a stale entry for the pre-eviction connection, which it
		// can no longer observe — the host never crashed, so that state
		// lingers until the old connection's client endpoint is reused or
		// the host reboots).
		for _, c := range r.replicas[1].TCP().Conns() {
			if c.Remote() == rejoined.conn.Local() {
				return
			}
		}
		t.Error("rejoined backup is not replicating the new connection")
	}}}.play(t)
}

// TestCongestionPolicyDisabledByDefault: without the policy, live hosts are
// never evicted no matter how many suspicions fire.
func TestCongestionPolicyDisabledByDefault(t *testing.T) {
	faultCase{seed: 62, replicas: 2, threshold: 2, send: make([]byte, 100_000), steps: []step{
		{do: func(r *faultRun) { r.conn.OnReadable(nil) }}, // the client never reads its echo
		{after: 100 * time.Millisecond, do: func(r *faultRun) { r.replicas[1].FTManager().SetChainLoss(1) }},
		{after: 2 * time.Minute},
	}, verdict: verdict{chain: []int{0, 1}, check: func(r *faultRun) {
		if r.rd.Daemon().Stats().Suspicions == 0 {
			t.Error("scenario inert: no suspicions despite a dead ack channel")
		}
	}}}.play(t)
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
		net := New(Config{Seed: 71})
		client := net.AddHost("client", HostConfig{})
		rd := net.AddRedirector("rd", HostConfig{})
		replicas := []*Host{net.AddHost("s0", HostConfig{}), net.AddHost("s1", HostConfig{})}
		lan := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
		net.Link(client, rd.Host, lan)
		net.Link(replicas[0], rd.Host, LinkConfig{Rate: rate, Delay: time.Millisecond, QueueBytes: 64 << 10})
		net.Link(replicas[1], rd.Host, lan)
		net.AutoRoute()
		svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
		if err != nil {
			t.Fatal(err)
		}
		net.Settle()
		reconfigs := 0
		rd.Daemon().OnReconfig(func(ServiceID, []Addr) { reconfigs++ })

		lst, err := replicas[0].Listen(0, 9)
		if err != nil {
			t.Fatal(err)
		}
		lst.SetAcceptFunc(func(c *Conn) { ttcp.Sink(c) })
		bulk, _ := client.DialEndpoint(Endpoint{Addr: replicas[0].Addr(), Port: 9})
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
