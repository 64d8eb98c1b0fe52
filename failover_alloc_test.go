package hydranet_test

import (
	"testing"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/testbed"
)

// TestFailoverScenarioAllocBudget pins what one fail-over scenario on a fresh
// Net allocates: testbed.MeasureFailover with one backup, the primary killed
// mid-stream, detection, reconfiguration and the resumed stream. A new
// per-object allocation in the frame pool, the scheduler, rmp, core or the
// route build shows here first.
//
// It takes 105 objects (107 under the race detector); the budget is 10 %
// above. Building the Net and the scenario takes about 37 of them, DeployFT
// 5, Settle 2 and the stream, crash, probe, reconfiguration and resumed
// stream about 61. Each host is one object — its netsim node, its stacks, and
// on a replica its ft-TCP engine and management daemon, all held by value —
// and their small tables are inline (TestStarBuildAllocBudget).
func TestFailoverScenarioAllocBudget(t *testing.T) {
	const budget = 115
	var res testbed.FailoverResult
	allocs := testing.AllocsPerRun(1, func() {
		res = testbed.MeasureFailover(testbed.FailoverConfig{Threshold: 3, Seed: 1})
	})
	if res.ClientError != nil || res.Detected == 0 || res.Resumed == 0 {
		t.Fatalf("fail-over did not complete: %+v", res)
	}
	t.Logf("%.0f objects per scenario", allocs)
	if allocs > budget {
		t.Errorf("one fail-over scenario allocates %v objects, budget %d", allocs, budget)
	}
}

// TestStarBuildAllocBudget pins what building a network and deploying a
// replicated service on it costs, phase by phase, on the Figure-3 hosts — a
// client, a redirector and two replicas — joined as a full mesh, as the
// fail-over sweep builds them 96 times a repetition. A host is one object: its
// node and every stack live in the Host by value, their small tables in
// inline arrays, and their maps are made by the first entry. A replica adds
// nothing to it: its ft-TCP engine, its first replicated port, its
// management daemon with its reliable-UDP tables, its listener and its
// virtual host are inline too. A new per-layer object or an eagerly made map
// shows here as a host or a replica that costs one more.
func TestStarBuildAllocBudget(t *testing.T) {
	const perHost, perLink, perReplica = 1, 1, 0
	var rd *hydranet.Redirector
	phases := []struct {
		name  string
		build func(*hydranet.Net, []*hydranet.Host)
		want  float64
	}{
		// The Net, its scheduler with PRNG and source, the fabric with its
		// frame pool, the bus with its clock.
		{"New", func(*hydranet.Net, []*hydranet.Host) {}, 8},
		{"three AddHosts", func(net *hydranet.Net, hosts []*hydranet.Host) {
			hosts[0] = net.AddHost("client", hydranet.HostConfig{})
			hosts[2] = net.AddHost("s0", hydranet.HostConfig{})
			hosts[3] = net.AddHost("s1", hydranet.HostConfig{})
		}, 3 * perHost},
		// The host, its Redirector (which holds the redirector table by
		// value), the table's map and the bound intercept hook.
		{"AddRedirector", func(net *hydranet.Net, hosts []*hydranet.Host) {
			rd = net.AddRedirector("rd", hydranet.HostConfig{})
			hosts[1] = rd.Host
		}, perHost + 3},
		{"six Links", func(net *hydranet.Net, hosts []*hydranet.Host) {
			for i := range hosts {
				for j := i + 1; j < len(hosts); j++ {
					net.Link(hosts[i], hosts[j], hydranet.LinkConfig{Rate: 10_000_000})
				}
			}
		}, 6 * perLink},
		// Three scratch slices, and each host's two route tables.
		{"AutoRoute", func(net *hydranet.Net, _ []*hydranet.Host) { net.AutoRoute() }, 3 + 4*2},
		// The FTService, which holds its replicas; the REGISTERs are the
		// Net's first frames, so the frame pool's first two slabs, the
		// fabric's first event record and the scheduler's first chunk of
		// event nodes.
		{"DeployFT", func(net *hydranet.Net, hosts []*hydranet.Host) {
			if _, err := net.DeployFT(testSvc, rd, hosts[2:], hydranet.FTOptions{}, app.Echo); err != nil {
				t.Fatal(err)
			}
		}, 1 + 4 + 2*perReplica},
		// Registration and chain set-up, per service: the redirector's table
		// entry, which holds a short chain, and the table's map group.
		{"Settle", func(net *hydranet.Net, _ []*hydranet.Host) { net.Settle() }, 2 + 2*perReplica},
	}
	hosts, before := make([]*hydranet.Host, 4), 0.0
	for n, ph := range phases {
		upTo := testing.AllocsPerRun(10, func() {
			net := hydranet.New(hydranet.Config{Seed: 1})
			for _, p := range phases[:n+1] {
				p.build(net, hosts)
			}
		})
		if got := upTo - before; got != ph.want {
			t.Errorf("%s allocates %v objects, want %v", ph.name, got, ph.want)
		}
		before = upTo
	}
}
