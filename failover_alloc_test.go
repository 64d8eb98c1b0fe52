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
// It takes 57 objects (59 under the race detector); the budget is 10 %
// above. Building the Net takes 22 of them, DeployFT 4, Settle none, and the
// scenario's record, the stream, crash, probe, reconfiguration and resumed
// stream about 31. A connection's socket buffers are one array each, taken
// at full size, and a received byte is copied once, into its place there. A
// tunnelled datagram too large for the MTU is cut from its pooled frame, with
// no staging buffer. Each host is one object — its netsim node, its stacks,
// and on a replica its ft-TCP engine and management daemon, all held by value —
// and its tables are inline: no map is made on the frame path
// (TestStarBuildAllocBudget).
func TestFailoverScenarioAllocBudget(t *testing.T) {
	const budget = 64
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
// node and every stack live in the Host by value, and their tables —
// routes, connections, reassemblies, the redirector's services — in inline
// arrays. A replica adds nothing to it: its ft-TCP engine, its first
// replicated port, its management daemon with its reliable-UDP tables, its
// listener and its virtual host are inline too. A link is none: the Net holds
// its first sixteen. A new per-layer object or a table that outgrows its
// backing shows here as a host, a link or a replica that costs one more.
func TestStarBuildAllocBudget(t *testing.T) {
	const perHost, perLink, perReplica = 1, 0, 0
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
		// The host and its Redirector, which holds the redirector table and
		// its first entry by value.
		{"AddRedirector", func(net *hydranet.Net, hosts []*hydranet.Host) {
			rd = net.AddRedirector("rd", hydranet.HostConfig{})
			hosts[1] = rd.Host
		}, perHost + 1},
		{"six Links", func(net *hydranet.Net, hosts []*hydranet.Host) {
			for i := range hosts {
				for j := i + 1; j < len(hosts); j++ {
					net.Link(hosts[i], hosts[j], hydranet.LinkConfig{Rate: 10_000_000})
				}
			}
		}, 6 * perLink},
		// Three scratch slices; the route tables are the hosts' own.
		{"AutoRoute", func(net *hydranet.Net, _ []*hydranet.Host) { net.AutoRoute() }, 3},
		// The FTService, which holds its replicas; the REGISTERs are the
		// Net's first frames, so the frame pool's first slab (its buffer
		// headers are the pool's own, so only its bytes), the fabric's first
		// event record and the scheduler's first chunk of event nodes.
		{"DeployFT", func(net *hydranet.Net, hosts []*hydranet.Host) {
			if _, err := net.DeployFT(testSvc, rd, hosts[2:], hydranet.FTOptions{}, app.Echo); err != nil {
				t.Fatal(err)
			}
		}, 1 + 3 + 2*perReplica},
		// Registration and chain set-up: the redirector's first entry, which
		// holds a short chain, and its row are inline.
		{"Settle", func(net *hydranet.Net, _ []*hydranet.Host) { net.Settle() }, 2 * perReplica},
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
