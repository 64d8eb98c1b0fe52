package hydranet

import (
	"bytes"
	"testing"
	"time"
)

func TestCrashWipesProtocolState(t *testing.T) {
	faultCase{seed: 21, replicas: 2, send: []byte("state"), steps: []step{{after: 2 * time.Second, do: func(r *faultRun) {
		if got := r.replicas[0].TCP().NumConns(); got != 1 {
			t.Fatalf("primary tracks %d conns before crash", got)
		}
		r.replicas[0].Crash()
		if got := r.replicas[0].TCP().NumConns(); got != 0 {
			t.Errorf("crash left %d TCP connections behind", got)
		}
		if r.replicas[0].FTManager().Port(testSvc) != nil {
			t.Error("crash left replicated-port state behind")
		}
	}}}}.play(t)
}

func TestRecommissionAfterFailure(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 20_000)
	var second *stream
	faultCase{seed: 22, replicas: 2, send: []byte("first"), steps: []step{
		// Crash the primary mid-stream, fail over.
		{after: 2 * time.Second, do: func(r *faultRun) { r.replicas[0].Crash(); r.conn.Write([]byte("|more")) }},
		{after: 60 * time.Second, do: func(r *faultRun) {
			if string(r.got) != "first|more" {
				t.Fatalf("failover echo = %q", r.got)
			}
			r.wantChain(1)
			// Recover s0 and bring it back as a backup.
			r.replicas[0].Restart()
			if err := r.svc.Recommission(r.replicas[0]); err != nil {
				t.Fatal(err)
			}
			r.net.Settle()
			r.wantChain(1, 0)
			// A NEW connection is replicated onto the recommissioned host...
			second = r.dial(r.client, testSvc, payload, false)
		}},
		{after: 10 * time.Second, do: func(r *faultRun) {
			if !bytes.Equal(second.got, payload) {
				t.Fatalf("post-recommission echo incomplete: %d bytes", len(second.got))
			}
			if got := r.replicas[0].FTManager().Port(testSvc); got == nil || got.Conns() != 1 {
				t.Fatal("recommissioned replica is not tracking the new connection")
			}
			// ...and survives the death of the current primary: full circle.
			r.replicas[1].Crash()
			second.conn.Write([]byte("after second failover"))
		}},
		{after: 90 * time.Second},
	}, verdict: verdict{chain: []int{0}, check: func(r *faultRun) {
		if want := append(payload, "after second failover"...); !bytes.Equal(second.got, want) {
			t.Errorf("second failover onto recommissioned host failed: got %d bytes, want %d", len(second.got), len(want))
		}
		if p := r.svc.Primary(); p == nil || p.Host != r.replicas[0] {
			t.Error("recommissioned host not promoted")
		}
	}}}.play(t)
}

func TestRecommissionRequiresRestart(t *testing.T) {
	net, _, rd, replicas, _ := ftTopology(Config{Seed: 23}, 2, LinkConfig{})
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	replicas[0].Crash()
	if err := svc.Recommission(replicas[0]); err == nil {
		t.Fatal("recommissioning a dead host succeeded")
	}
}

func TestRecommissionRejectsStranger(t *testing.T) {
	net, _, rd, replicas, _ := ftTopology(Config{Seed: 24}, 2, LinkConfig{})
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	stranger := net.AddHost("stranger", HostConfig{})
	net.Link(stranger, rd.Host, LinkConfig{})
	net.AutoRoute()
	if err := svc.Recommission(stranger); err == nil {
		t.Fatal("recommissioning a never-member host succeeded")
	}
}

func TestManyClientsSurviveFailover(t *testing.T) {
	net, _, rd, replicas, _ := ftTopology(Config{Seed: 25}, 3, LinkConfig{})
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	// Several independent client hosts.
	const n = 5
	var clients []*Host
	for i := 0; i < n; i++ {
		h := net.AddHost("c"+string(rune('0'+i)), HostConfig{})
		clients = append(clients, h)
		net.Link(h, rd.Host, LinkConfig{Rate: 10_000_000, Delay: time.Millisecond})
	}
	net.AutoRoute()
	net.Settle()

	r := &faultRun{t: t, net: net}
	payloads, streams := make([][]byte, n), make([]*stream, n)
	for i, h := range clients {
		payloads[i] = bytes.Repeat([]byte{byte('A' + i)}, 30_000+1000*i)
		streams[i] = r.dial(h, testSvc, payloads[i], false)
	}
	net.RunFor(200 * time.Millisecond)
	svc.CrashPrimary()
	net.RunFor(3 * time.Minute)

	for i, s := range streams {
		if !bytes.Equal(s.got, payloads[i]) {
			t.Errorf("client %d: echo %d of %d bytes after failover", i, len(s.got), len(payloads[i]))
		}
	}
	// Every replica carries all n connections (one per client).
	for _, rep := range svc.Replicas()[1:] {
		if got := rep.Port.Conns(); got != n {
			t.Errorf("replica %s tracks %d conns, want %d", rep.Host.Name(), got, n)
		}
	}
}

func TestTwoIndependentFTServices(t *testing.T) {
	// Service A (testSvc): s0 primary; service B: s1 primary (reversed order).
	svcB := ServiceID{Addr: MustAddr("192.20.225.21"), Port: 9000}
	var b *FTService
	var connB *stream
	faultCase{seed: 26, replicas: 2, send: []byte("service A"), setup: func(r *faultRun) {
		var err error
		if b, err = r.net.DeployFT(svcB, r.rd, []*Host{r.replicas[1], r.replicas[0]}, FTOptions{}, echoAccept()); err != nil {
			t.Fatal(err)
		}
	}, steps: []step{
		{do: func(r *faultRun) { connB = r.dial(r.client, svcB, []byte("service B"), false) }},
		{after: 5 * time.Second, do: func(r *faultRun) {
			if string(r.got) != "service A" || string(connB.got) != "service B" {
				t.Fatalf("echoes: %q / %q", r.got, connB.got)
			}
			// Crash s0: primary of A, backup of B. Both must keep working.
			r.replicas[0].Crash()
			r.conn.Write([]byte("|survives"))
			connB.conn.Write([]byte("|survives"))
		}},
		{after: 90 * time.Second},
	}, verdict: verdict{echo: []byte("service A|survives"), chain: []int{1}, check: func(r *faultRun) {
		if string(connB.got) != "service B|survives" {
			t.Errorf("service B after its backup died: %q", connB.got)
		}
		if got := b.Chain(); len(got) != 1 || got[0] != r.replicas[1].Addr() {
			t.Errorf("service B chain = %v", got)
		}
	}}}.play(t)
}
