package hydranet_test

import (
	"bytes"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/testbed"
)

// twoISPTopology models Figure 1: two client populations behind their own
// redirectors; the replica hosts are reachable from both redirectors.
//
//	clientA — rd1 —— s0, s1
//	clientB — rd2 ——/   (rd1—rd2 linked; hosts linked to both redirectors)
func twoISPTopology(t *testing.T, seed int64) (*hydranet.Net, *hydranet.Host, *hydranet.Host, *hydranet.Redirector, *hydranet.Redirector, []*hydranet.Host) {
	t.Helper()
	net := hydranet.New(hydranet.Config{Seed: seed})
	clientA := net.AddHost("clientA", hydranet.HostConfig{})
	clientB := net.AddHost("clientB", hydranet.HostConfig{})
	rd1 := net.AddRedirector("rd1", hydranet.HostConfig{})
	rd2 := net.AddRedirector("rd2", hydranet.HostConfig{})
	s0 := net.AddHost("s0", hydranet.HostConfig{})
	s1 := net.AddHost("s1", hydranet.HostConfig{})
	link := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Link(rd1.Host, rd2.Host, link)
	net.Link(clientA, rd1.Host, link)
	net.Link(clientB, rd2.Host, link)
	for _, s := range []*hydranet.Host{s0, s1} {
		net.Link(s, rd1.Host, link)
		net.Link(s, rd2.Host, link)
	}
	net.AutoRoute()
	return net, clientA, clientB, rd1, rd2, []*hydranet.Host{s0, s1}
}

func TestMirroredRedirectorsServeBothPopulations(t *testing.T) {
	net, clientA, clientB, rd1, rd2, replicas := twoISPTopology(t, 41)
	rd1.Mirror(rd2)
	svc, err := net.DeployFT(testSvc, rd1, replicas, hydranet.FTOptions{}, app.Echo)
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	// Both redirectors hold the entry.
	for i, rd := range []*hydranet.Redirector{rd1, rd2} {
		e := rd.Table().Lookup(testSvc)
		if e == nil || !e.FT || e.Primary != replicas[0].Addr() {
			t.Fatalf("redirector %d entry = %+v", i+1, e)
		}
	}

	r := &testbed.Run{Net: net}
	a, b := r.Dial(clientA, testSvc, []byte("population A"), false), r.Dial(clientB, testSvc, []byte("population B"), false)
	net.RunFor(10 * time.Second)
	if !a.Echoed() || !b.Echoed() {
		t.Fatalf("echoes: %d of 12 and %d of 12 bytes", a.Delivered, b.Delivered)
	}
	_ = svc
}

func TestFailoverPropagatesToMirror(t *testing.T) {
	net, clientA, clientB, rd1, rd2, replicas := twoISPTopology(t, 42)
	rd1.Mirror(rd2)
	svc, err := net.DeployFT(testSvc, rd1, replicas, hydranet.FTOptions{}, app.Echo)
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	r, payload := &testbed.Run{Net: net}, bytes.Repeat([]byte("z"), 400_000)
	a, b := r.Dial(clientA, testSvc, payload, false), r.Dial(clientB, testSvc, payload, false)
	net.RunFor(100 * time.Millisecond)

	svc.CrashPrimary()
	net.RunFor(4 * time.Minute)

	if !a.Echoed() {
		t.Errorf("client A (authority side): %d of %d bytes", a.Delivered, len(payload))
	}
	if !b.Echoed() {
		t.Errorf("client B (mirror side): %d of %d bytes", b.Delivered, len(payload))
	}
	// The mirror's table must have dropped the dead primary.
	e := rd2.Table().Lookup(testSvc)
	if e == nil || e.Primary != replicas[1].Addr() || len(e.Backups) != 0 {
		t.Fatalf("mirror entry after failover = %+v", e)
	}
}

func TestMirrorAddedLateConverges(t *testing.T) {
	net, _, clientB, rd1, rd2, replicas := twoISPTopology(t, 43)
	// Deploy first, mirror afterwards: AddPeer must push existing state.
	if _, err := net.DeployFT(testSvc, rd1, replicas, hydranet.FTOptions{}, app.Echo); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if rd2.Table().Lookup(testSvc) != nil {
		t.Fatal("mirror has the entry before mirroring was enabled")
	}
	rd1.Mirror(rd2)
	net.Settle()
	if rd2.Table().Lookup(testSvc) == nil {
		t.Fatal("late mirror did not converge")
	}
	b := (&testbed.Run{Net: net}).Dial(clientB, testSvc, []byte("late but served"), false)
	net.RunFor(10 * time.Second)
	if !b.Echoed() {
		t.Fatalf("echo: %d of 15 bytes", b.Delivered)
	}
}
