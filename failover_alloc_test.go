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
// It takes 39 objects; the budget is 10 % above. The race detector drops
// sync.Pool items at random (fmt's printers), so there one run takes 39–46
// and the average of ten, which the test takes, 40–42. Of the 39, building
// the Net takes 2, DeployFT 1, Settle none (TestStarBuildAllocBudget), and
// the scenario's record, the stream, crash, probe, reconfiguration and
// resumed stream the rest. A connection's socket buffers are one array each,
// taken at full size, and a received byte is copied once, into its place
// there. A tunnelled datagram too large for the MTU is cut from its pooled
// frame, with no staging buffer.
func TestFailoverScenarioAllocBudget(t *testing.T) {
	const budget = 43
	var res testbed.FailoverResult
	allocs := testing.AllocsPerRun(10, func() {
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
// fail-over sweep builds them 96 times a repetition. The Net holds its
// scheduler, fabric and bus, its first five hosts, first redirector, first
// sixteen links and first fault-tolerant service by value; a host holds its
// node and every stack, a replica its ft-TCP engine and management daemon,
// and each of them its tables in inline arrays. So within those sizes only
// the Net, its PRNG's source and the frame pool's first slab of bytes are
// objects. A new per-layer object or a table that outgrows its backing shows
// here as a phase that costs one more.
func TestStarBuildAllocBudget(t *testing.T) {
	var rd *hydranet.Redirector
	phases := []struct {
		name  string
		build func(*hydranet.Net, []*hydranet.Host)
		want  float64
	}{
		// The Net, and the source of its scheduler's PRNG.
		{"New", func(*hydranet.Net, []*hydranet.Host) {}, 2},
		{"three AddHosts", func(net *hydranet.Net, hosts []*hydranet.Host) {
			hosts[0] = net.AddHost("client", hydranet.HostConfig{})
			hosts[2] = net.AddHost("s0", hydranet.HostConfig{})
			hosts[3] = net.AddHost("s1", hydranet.HostConfig{})
		}, 0},
		{"AddRedirector", func(net *hydranet.Net, hosts []*hydranet.Host) {
			rd = net.AddRedirector("rd", hydranet.HostConfig{})
			hosts[1] = rd.Host
		}, 0},
		{"six Links", func(net *hydranet.Net, hosts []*hydranet.Host) {
			for i := range hosts {
				for j := i + 1; j < len(hosts); j++ {
					net.Link(hosts[i], hosts[j], hydranet.LinkConfig{Rate: 10_000_000})
				}
			}
		}, 0},
		// Its scratch is on the stack; the route tables are the hosts' own.
		{"AutoRoute", func(net *hydranet.Net, _ []*hydranet.Host) { net.AutoRoute() }, 0},
		// The REGISTERs are the Net's first frames: the frame pool's first
		// slab, whose buffer headers are the pool's own, so only its bytes.
		{"DeployFT", func(net *hydranet.Net, hosts []*hydranet.Host) {
			if _, err := net.DeployFT(testSvc, rd, hosts[2:], hydranet.FTOptions{}, app.Echo); err != nil {
				t.Fatal(err)
			}
		}, 1},
		// Registration and chain set-up: the redirector's first entry, which
		// holds a short chain, its row and its reliable-UDP records are inline.
		{"Settle", func(net *hydranet.Net, _ []*hydranet.Host) { net.Settle() }, 0},
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
