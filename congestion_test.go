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
	net, client, rd, replicas := ftTopology(t, 61, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 2}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	rd.Daemon().SetCongestionPolicy(rmp.CongestionPolicy{Strikes: 3, Window: 2 * time.Minute})
	net.Settle()

	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	payload := make([]byte, 150_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	app.Source(conn, payload, false)
	net.RunFor(100 * time.Millisecond)

	// Severe congestion at the backup: its chain messages all vanish, so
	// the primary can never acknowledge.
	replicas[1].FTManager().SetChainLoss(1.0)
	net.RunFor(3 * time.Minute)

	if got := len(*echoed); got != len(payload) {
		t.Fatalf("transfer stalled at %d of %d despite congestion eviction", got, len(payload))
	}
	chain := svc.Chain()
	if len(chain) != 1 || chain[0] != replicas[0].Addr() {
		t.Fatalf("chain = %v, want the congested backup evicted", chain)
	}
	if rd.Daemon().Stats().CongestionEvictions == 0 {
		t.Fatal("eviction not recorded as congestion-based")
	}
	if !replicas[1].Alive() {
		t.Fatal("test invariant: the evicted backup is alive, just congested")
	}

	// Congestion clears; the server rejoins for new connections.
	replicas[1].FTManager().SetChainLoss(0)
	if err := svc.Recommission(replicas[1]); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got := svc.Chain(); len(got) != 2 {
		t.Fatalf("chain after recommission = %v", got)
	}
	conn2, _ := client.Dial(testSvc)
	echoed2 := collect(conn2)
	app.Source(conn2, []byte("back in business"), false)
	net.RunFor(10 * time.Second)
	if string(*echoed2) != "back in business" {
		t.Fatalf("echo after rejoin = %q", *echoed2)
	}
	// The rejoined backup replicates the new connection (it may also still
	// track a stale entry for the pre-eviction connection, which it can no
	// longer observe — the host never crashed, so that state lingers until
	// the old connection's client endpoint is reused or the host reboots).
	newConnSeen := false
	for _, c := range replicas[1].TCP().Conns() {
		if c.Remote() == conn2.Local() {
			newConnSeen = true
		}
	}
	if !newConnSeen {
		t.Fatal("rejoined backup is not replicating the new connection")
	}
}

// TestCongestionPolicyDisabledByDefault: without the policy, live hosts are
// never evicted no matter how many suspicions fire.
func TestCongestionPolicyDisabledByDefault(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 62, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 2}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	app.Source(conn, make([]byte, 100_000), false)
	net.RunFor(100 * time.Millisecond)
	replicas[1].FTManager().SetChainLoss(1.0)
	net.RunFor(2 * time.Minute)
	if got := len(svc.Chain()); got != 2 {
		t.Fatalf("chain = %d members; default policy must never evict live hosts", got)
	}
	if rd.Daemon().Stats().Suspicions == 0 {
		t.Fatal("scenario inert: no suspicions despite a dead ack channel")
	}
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
