package rmp_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/core"
	"hydranet/internal/rmp"
	"hydranet/internal/testbed"
)

var svc = hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.20"), Port: 80}

func build(t *testing.T, seed int64, n int) (*hydranet.Net, *hydranet.Redirector, []*hydranet.Host) {
	t.Helper()
	net := hydranet.New(hydranet.Config{Seed: seed})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	var hosts []*hydranet.Host
	for i := 0; i < n; i++ {
		h := net.AddHost(fmt.Sprintf("s%d", i), hydranet.HostConfig{})
		hosts = append(hosts, h)
		net.Link(h, rd.Host, hydranet.LinkConfig{Delay: time.Millisecond})
	}
	net.AutoRoute()
	return net, rd, hosts
}

func TestRegistrationBuildsChain(t *testing.T) {
	net, rd, hosts := build(t, 61, 3)
	if _, err := net.DeployFT(svc, rd, hosts, hydranet.FTOptions{},
		func(c *hydranet.Conn) { app.Echo(c) }); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	chain := rd.Daemon().Chain(svc)
	if len(chain) != 3 || chain[0] != hosts[0].Addr() {
		t.Fatalf("chain = %v", chain)
	}
	// The redirector table must agree.
	entry := rd.Table().Lookup(svc)
	if entry == nil || !slices.Equal(entry.Chain, chain) {
		t.Fatalf("table entry = %+v", entry)
	}
	// Chain positions: primary ungated only if it had no successor; here
	// everyone but the tail is gated, which we verify via replica modes.
	for i, h := range hosts {
		port := h.FTManager().Port(svc)
		if port == nil {
			t.Fatalf("host %d has no replicated port", i)
		}
		wantMode := core.ModeBackup
		if i == 0 {
			wantMode = core.ModePrimary
		}
		if port.Mode() != wantMode {
			t.Errorf("host %d mode = %v, want %v", i, port.Mode(), wantMode)
		}
	}
}

func TestDuplicateRegistrationIgnored(t *testing.T) {
	net, rd, hosts := build(t, 62, 2)
	if _, err := net.DeployFT(svc, rd, hosts, hydranet.FTOptions{},
		func(c *hydranet.Conn) { app.Echo(c) }); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	// The reliable layer may retry REGISTER; the daemon also dedups at the
	// chain level. Registering the same host again must not duplicate it.
	lst, _ := hosts[1].TCP().Listen(hydranet.MustAddr("192.20.225.21"), 80)
	_ = lst
	hosts[1].Daemon(rd).RegisterFT(svc, core.ModeBackup, core.DetectorParams{}, lst)
	net.Settle()
	if chain := rd.Daemon().Chain(svc); len(chain) != 2 {
		t.Fatalf("chain after duplicate registration = %v", chain)
	}
}

func TestVoluntaryLeaveOfBackup(t *testing.T) {
	net, rd, hosts := build(t, 63, 3)
	if _, err := net.DeployFT(svc, rd, hosts, hydranet.FTOptions{},
		func(c *hydranet.Conn) { app.Echo(c) }); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	hosts[1].Daemon(rd).Leave(svc)
	net.Settle()
	chain := rd.Daemon().Chain(svc)
	if len(chain) != 2 || chain[0] != hosts[0].Addr() || chain[1] != hosts[2].Addr() {
		t.Fatalf("chain after leave = %v", chain)
	}
	// The leaver no longer hosts the virtual address.
	if hosts[1].HostServer().HasVHost(svc.Addr) {
		t.Error("leaver still hosts the virtual host")
	}
}

func TestVoluntaryLeaveOfPrimaryPromotesNext(t *testing.T) {
	net, rd, hosts := build(t, 64, 2)
	if _, err := net.DeployFT(svc, rd, hosts, hydranet.FTOptions{},
		func(c *hydranet.Conn) { app.Echo(c) }); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	hosts[0].Daemon(rd).Leave(svc)
	net.Settle()
	chain := rd.Daemon().Chain(svc)
	if len(chain) != 1 || chain[0] != hosts[1].Addr() {
		t.Fatalf("chain = %v, want just the old backup", chain)
	}
	port := hosts[1].FTManager().Port(svc)
	if port.Mode() != core.ModePrimary {
		t.Fatalf("survivor mode = %v, want primary", port.Mode())
	}
}

func TestSuspectProbeKeepsLiveHosts(t *testing.T) {
	// A false suspicion (all hosts alive) must not reconfigure anything.
	// Heavy loss on the acknowledgment channel stalls the flow-control
	// loop, the client retransmits, and the detector fires — but the probe
	// finds everyone alive, so nothing may change.
	r := play(t, testbed.Scenario{Seed: 65, Replicas: 2, ChainLoss: 0.9, Send: make([]byte, 64*1024),
		Steps: []testbed.Step{{After: 2 * time.Minute}}})
	if r.Redirector.Daemon().Stats().Suspicions == 0 {
		t.Fatal("chain loss provoked no suspicion — the scenario is inert")
	}
	if got := len(r.Redirector.Daemon().Chain(svc)); got != 2 {
		t.Fatalf("live hosts removed from chain: %v", r.Redirector.Daemon().Chain(svc))
	}
	if r.FalseReconfigs != 0 {
		t.Errorf("%d reconfigurations despite all hosts alive", r.FalseReconfigs)
	}
}

// TestCongestionStrikesExpire: under SetCongestionPolicy(2), two all-alive
// probes evict the chain's tail when they end within the strike window (two
// minutes) of each other, and evict nothing when they are further apart.
func TestCongestionStrikesExpire(t *testing.T) {
	for _, tc := range []struct {
		gap   time.Duration
		chain int
	}{{2*time.Minute - time.Second, 2}, {2*time.Minute + time.Second, 3}} {
		net, rd, hosts := build(t, 66, 3)
		if _, err := net.DeployFT(svc, rd, hosts, hydranet.FTOptions{}, app.Echo); err != nil {
			t.Fatal(err)
		}
		net.Settle()
		rd.Daemon().SetCongestionPolicy(2)
		rd.Daemon().Probe(svc)
		net.RunFor(tc.gap)
		rd.Daemon().Probe(svc)
		net.Settle()
		chain := rd.Daemon().Chain(svc)
		if len(chain) != tc.chain || chain[0] != hosts[0].Addr() {
			t.Errorf("probes %v apart: chain %v, want the first %d hosts", tc.gap, chain, tc.chain)
		}
		if got, want := rd.Daemon().Stats().CongestionEvictions, uint64(3-tc.chain); got != want {
			t.Errorf("probes %v apart: %d congestion evictions, want %d", tc.gap, got, want)
		}
	}
}

// play plays sc, a run on the Figure-3 star, under the invariant monitor and
// fails the test on each of the run's Problems.
func play(t *testing.T, sc testbed.Scenario) *testbed.Run {
	t.Helper()
	sc.Observe.Invariants = true
	r := sc.Play()
	for _, p := range r.Problems() {
		t.Error(p)
	}
	if r.Session == nil {
		t.FailNow() // the observers never attached: nothing ran
	}
	return r
}

func TestRegistrationRaceDemotesInterimPrimary(t *testing.T) {
	// Jittery management links can deliver the backup's REGISTER before
	// the primary's. The backup is then briefly the sole member — and
	// primary — until the real primary registers; the subsequent
	// CHAIN-SET must demote it (suppression back on), or it becomes an
	// unsuppressed co-primary corrupting the client stream.
	//
	// The client dials once the deploy has settled: whatever the arrival
	// order, the settled modes must match the chain by then.
	modes := func(r *testbed.Run) {
		chain := r.Redirector.Daemon().Chain(svc)
		if len(chain) != 3 {
			t.Fatalf("chain = %v", chain)
		}
		for i, h := range r.Replicas {
			want := core.ModeBackup
			if h.Addr() == chain[0] {
				want = core.ModePrimary
			}
			if got := h.FTManager().Port(svc).Mode(); got != want {
				t.Errorf("host %d mode = %v, want %v (chain %v)", i, got, want, chain)
			}
		}
	}
	r := play(t, testbed.Scenario{Seed: 67, Replicas: 3,
		Link: hydranet.LinkConfig{Jitter: 10 * time.Millisecond}, // strong management reordering
		Send: []byte("who answers?"), Steps: []testbed.Step{{Do: modes}, {After: 20 * time.Second}}})
	// And exactly one replica answers the client.
	if !r.Echoed() {
		t.Fatalf("echoed %d bytes, garbled=%v", r.Delivered, r.Garbled)
	}
	transmitters := 0
	for _, h := range r.Replicas {
		for _, c := range h.TCP().Conns() {
			if c.Stats().SegsSent > 0 {
				transmitters++
			}
		}
	}
	if transmitters != 1 {
		t.Fatalf("%d replicas transmitted to the client, want exactly 1", transmitters)
	}
}

func TestRedirectorDaemonStatsProgress(t *testing.T) {
	net, rd, hosts := build(t, 66, 2)
	if _, err := net.DeployFT(svc, rd, hosts, hydranet.FTOptions{},
		func(c *hydranet.Conn) { app.Echo(c) }); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	st := rd.Daemon().Stats()
	if st.Registrations != 2 {
		t.Errorf("Registrations = %d, want 2", st.Registrations)
	}
	if st.Reconfigs < 2 {
		t.Errorf("Reconfigs = %d, want >= 2 (one per registration)", st.Reconfigs)
	}
}

func TestStaleChainSetIgnored(t *testing.T) {
	// The reliable layer retransmits a CHAIN-SET until it is acknowledged,
	// so an older one can arrive after a newer one: a primary registered
	// alone (ungated) loses that CHAIN-SET, gets the gated one sent when its
	// backup joined, and then the retransmission of the first. The older
	// configuration must not undo the newer. Both arrive before the
	// client's SYN does.
	r := play(t, testbed.Scenario{Seed: 68, Replicas: 2, Send: []byte("gated?"), Steps: []testbed.Step{
		{Do: func(r *testbed.Run) {
			hosts := r.Replicas
			d := hosts[0].Daemon(r.Redirector)
			for _, set := range []rmp.Message{
				{Type: rmp.MsgChainSet, Service: svc, Host: hosts[0].Addr(), Mode: core.ModePrimary, Gated: true, ProbeID: 1000},
				{Type: rmp.MsgChainSet, Service: svc, Host: hosts[0].Addr(), Mode: core.ModePrimary, Gated: false, ProbeID: 999},
			} {
				d.Deliver(set.Marshal())
			}
			// A gated primary deposits nothing its backup has not
			// acknowledged. With every acknowledgment-channel message of the
			// backup lost, no echo may come back.
			hosts[1].FTManager().SetChainLoss(1)
		}},
		{After: 500 * time.Millisecond},
	}})
	if r.Delivered != 0 {
		t.Fatalf("the primary echoed %d bytes: the older, ungated CHAIN-SET was applied", r.Delivered)
	}
}

// TestProbeAllocatesNothing: once warm, a suspicion's probe — a ping to each
// member and its acknowledgment, the heard-from hook installed and removed —
// allocates nothing. The pings' records and the members' peer records are
// the reliable layer's inline tables, and each member's record in the probe
// is its ping's result handler.
func TestProbeAllocatesNothing(t *testing.T) {
	net, rd, hosts := build(t, 63, 3)
	if _, err := net.DeployFT(svc, rd, hosts, hydranet.FTOptions{}, app.Echo); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	probe := func() {
		rd.Daemon().Probe(svc)
		net.RunFor(time.Second)
	}
	probe()
	if avg := testing.AllocsPerRun(20, probe); avg != 0 {
		t.Errorf("a probe of three live members allocates %.1f objects, want 0", avg)
	}
	st := rd.Daemon().Stats()
	if st.Suspicions != 22 || st.ProbesSent != 66 || st.HostsFailed != 0 || len(rd.Daemon().Chain(svc)) != 3 {
		t.Fatalf("after 22 probes: %+v, chain %v", st, rd.Daemon().Chain(svc))
	}
}
