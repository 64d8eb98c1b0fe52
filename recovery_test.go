package hydranet_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/testbed"
)

// TestCrashWipesProtocolState: a crashed host keeps no connection and no
// replicated-port state (the crash is what the test examines, so it stays in
// the step).
func TestCrashWipesProtocolState(t *testing.T) {
	row(t, testbed.Scenario{Seed: 21, Replicas: 2, Send: []byte("state"), Steps: []testbed.Step{{After: 2 * time.Second, Do: func(r *testbed.Run) {
		if got := r.Replicas[0].TCP().NumConns(); got != 1 {
			t.Fatalf("primary tracks %d conns before crash", got)
		}
		r.Replicas[0].Crash()
		if got := r.Replicas[0].TCP().NumConns(); got != 0 {
			t.Errorf("crash left %d TCP connections behind", got)
		}
		if r.Replicas[0].FTManager().Port(testSvc) != nil {
			t.Error("crash left replicated-port state behind")
		}
	}}}}, verdict{})
}

func TestRecommissionAfterFailure(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 20_000)
	var second *testbed.Stream
	row(t, testbed.Scenario{Seed: 22, Replicas: 2, Send: []byte("first"), Faults: at(2*time.Second, testbed.Crash, 0),
		Steps: []testbed.Step{
			// Crash the primary mid-stream, fail over.
			{After: 2 * time.Second, Do: func(r *testbed.Run) { r.Write([]byte("|more")) }},
			{After: 60 * time.Second, Do: func(r *testbed.Run) {
				if !r.Echoed() {
					t.Fatalf("failover echo: %d bytes, garbled=%v", r.Delivered, r.Garbled)
				}
				wantChain(t, r, 1)
				// Recover s0 and bring it back as a backup.
				r.Replicas[0].Restart()
				if err := r.Service.Recommission(r.Replicas[0]); err != nil {
					t.Fatal(err)
				}
				r.Net.Settle()
				wantChain(t, r, 1, 0)
				// A NEW connection is replicated onto the recommissioned host...
				second = r.Dial(r.Client, testSvc, payload, false)
			}},
			// ...and survives the death of the current primary, ten seconds
			// after an unknown settling time: full circle.
			{After: 10 * time.Second, Do: func(r *testbed.Run) {
				if !second.Echoed() {
					t.Fatalf("post-recommission echo incomplete: %d bytes", second.Delivered)
				}
				if got := r.Replicas[0].FTManager().Port(testSvc); got == nil || got.Conns() != 1 {
					t.Fatal("recommissioned replica is not tracking the new connection")
				}
				r.Replicas[1].Crash()
				second.Write([]byte("after second failover"))
			}},
			{After: 90 * time.Second},
		}}, verdict{chain: []int{0}, check: func(r *testbed.Run) {
		if !second.Echoed() {
			t.Errorf("second failover onto recommissioned host failed: got %d bytes, garbled=%v", second.Delivered, second.Garbled)
		}
		if p := r.Service.Primary(); p == nil || p.Host != r.Replicas[0] {
			t.Error("recommissioned host not promoted")
		}
	}})
}

// recommission plays a two-replica echo and, a second after the dial, asks
// the service to recommission the host that try returns; that must fail.
func recommission(t *testing.T, seed int64, try func(*testbed.Run) *hydranet.Host, why string) {
	row(t, testbed.Scenario{Seed: seed, Replicas: 2, Send: []byte("member"), Steps: []testbed.Step{{After: time.Second, Do: func(r *testbed.Run) {
		if err := r.Service.Recommission(try(r)); err == nil {
			t.Fatalf("recommissioning %s succeeded", why)
		}
	}}}}, verdict{echo: true})
}

func TestRecommissionRequiresRestart(t *testing.T) {
	recommission(t, 23, func(r *testbed.Run) *hydranet.Host { r.Replicas[0].Crash(); return r.Replicas[0] }, "a dead host")
}

func TestRecommissionRejectsStranger(t *testing.T) {
	recommission(t, 24, func(r *testbed.Run) *hydranet.Host {
		stranger := r.Net.AddHost("stranger", hydranet.HostConfig{})
		r.Net.Link(stranger, r.Redirector.Host, hydranet.LinkConfig{})
		r.Net.AutoRoute()
		return stranger
	}, "a never-member host")
}

// TestManyClientsSurviveFailover: five client hosts, each on its own link to
// the redirector, stream through one primary crash.
func TestManyClientsSurviveFailover(t *testing.T) {
	const n = 5
	send := func(i int) []byte { return bytes.Repeat([]byte{byte('A' + i)}, 30_000+1000*i) }
	streams, clients := make([]*testbed.Stream, n), make([]*hydranet.Host, n)
	row(t, testbed.Scenario{Seed: 25, Replicas: 3, Send: send(0), Setup: func(r *testbed.Run) {
		for i := 1; i < n; i++ {
			clients[i] = r.Net.AddHost(fmt.Sprintf("c%d", i), hydranet.HostConfig{})
			r.Net.Link(clients[i], r.Redirector.Host, hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond})
		}
		r.Net.AutoRoute()
	}, Faults: at(200*time.Millisecond, testbed.CrashPrimary, 0), Steps: []testbed.Step{
		{Do: func(r *testbed.Run) {
			streams[0] = r.Stream
			for i := 1; i < n; i++ {
				streams[i] = r.Dial(clients[i], testSvc, send(i), false)
			}
		}},
		{After: 200*time.Millisecond + 3*time.Minute},
	}}, verdict{check: func(r *testbed.Run) {
		for i, s := range streams {
			if !s.Echoed() {
				t.Errorf("client %d: echo %d of %d bytes after failover", i, s.Delivered, len(send(i)))
			}
		}
		// Every replica carries all n connections (one per client).
		for _, rep := range r.Service.Replicas()[1:] {
			if got := rep.Port.Conns(); got != n {
				t.Errorf("replica %s tracks %d conns, want %d", rep.Host.Name(), got, n)
			}
		}
		deliveryChecks(t, r)
	}})
}

func TestTwoIndependentFTServices(t *testing.T) {
	// Service A (testSvc): s0 primary; service B: s1 primary (reversed order).
	svcB := hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.21"), Port: 9000}
	var b *hydranet.FTService
	var connB *testbed.Stream
	row(t, testbed.Scenario{Seed: 26, Replicas: 2, Send: []byte("service A"), Setup: func(r *testbed.Run) {
		var err error
		if b, err = r.Net.DeployFT(svcB, r.Redirector, []*hydranet.Host{r.Replicas[1], r.Replicas[0]}, hydranet.FTOptions{}, app.Echo); err != nil {
			t.Fatal(err)
		}
	}, Faults: at(5*time.Second, testbed.Crash, 0), Steps: []testbed.Step{
		{Do: func(r *testbed.Run) { connB = r.Dial(r.Client, svcB, []byte("service B"), false) }},
		{After: 5 * time.Second, Do: func(r *testbed.Run) {
			if !r.Echoed() || !connB.Echoed() {
				t.Fatalf("echoes: %d / %d bytes", r.Delivered, connB.Delivered)
			}
			// s0 crashed: primary of A, backup of B. Both must keep working.
			r.Write([]byte("|survives"))
			connB.Write([]byte("|survives"))
		}},
		{After: 90 * time.Second},
	}}, verdict{echo: true, chain: []int{1}, check: func(r *testbed.Run) {
		if !connB.Echoed() {
			t.Errorf("service B after its backup died: %d bytes, garbled=%v", connB.Delivered, connB.Garbled)
		}
		if got := b.Chain(); len(got) != 1 || got[0] != r.Replicas[1].Addr() {
			t.Errorf("service B chain = %v", got)
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
