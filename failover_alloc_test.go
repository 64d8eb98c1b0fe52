package hydranet_test

import (
	"testing"

	"hydranet"
	"hydranet/internal/testbed"
)

// TestFailoverScenarioAllocBudget pins what one fail-over scenario on a fresh
// Net allocates, topology build included: testbed.MeasureFailover with one
// backup, the primary killed mid-stream, detection, reconfiguration and the
// resumed stream. The count is dominated by building the Net — the protocol
// path itself allocates next to nothing — so a new per-object allocation in
// the frame pool, the scheduler, rmp or the route build shows here first.
//
// It takes 219 objects (220 to 226 under the race detector); the budget is
// 10 % above. Each of the four hosts is one object: the Host holds its
// netsim node and its IP, UDP, TCP, ICMP and host-server layers by value,
// their small tables (interfaces, local addresses, UDP bindings) in inline
// arrays, and the maps most hosts never write are made on first insert
// (TestStarBuildAllocBudget).
func TestFailoverScenarioAllocBudget(t *testing.T) {
	const budget = 241
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

// TestStarBuildAllocBudget pins what building a network costs, phase by
// phase, on the Figure-3 hosts — a client, a redirector and two replicas —
// joined as a full mesh, as the fail-over sweep builds them 96 times a
// repetition. A host is one object: its node and every stack live in the
// Host by value, their small tables in inline arrays, and their maps are
// made by the first entry. A new per-layer object or an eagerly made map
// shows here as a host that costs two.
func TestStarBuildAllocBudget(t *testing.T) {
	const perHost, perLink = 1, 1
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
			hosts[1] = net.AddRedirector("rd", hydranet.HostConfig{}).Host
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
