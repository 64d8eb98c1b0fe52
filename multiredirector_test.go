package hydranet

import (
	"bytes"
	"testing"
	"time"
)

// twoISPTopology models Figure 1: two client populations behind their own
// redirectors; the replica hosts are reachable from both redirectors.
//
//	clientA — rd1 —— s0, s1
//	clientB — rd2 ——/   (rd1—rd2 linked; hosts linked to both redirectors)
func twoISPTopology(t *testing.T, seed int64) (*Net, *Host, *Host, *Redirector, *Redirector, []*Host) {
	t.Helper()
	net := New(Config{Seed: seed})
	clientA := net.AddHost("clientA", HostConfig{})
	clientB := net.AddHost("clientB", HostConfig{})
	rd1 := net.AddRedirector("rd1", HostConfig{})
	rd2 := net.AddRedirector("rd2", HostConfig{})
	s0 := net.AddHost("s0", HostConfig{})
	s1 := net.AddHost("s1", HostConfig{})
	link := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Link(rd1.Host, rd2.Host, link)
	net.Link(clientA, rd1.Host, link)
	net.Link(clientB, rd2.Host, link)
	for _, s := range []*Host{s0, s1} {
		net.Link(s, rd1.Host, link)
		net.Link(s, rd2.Host, link)
	}
	net.AutoRoute()
	return net, clientA, clientB, rd1, rd2, []*Host{s0, s1}
}

func TestMirroredRedirectorsServeBothPopulations(t *testing.T) {
	net, clientA, clientB, rd1, rd2, replicas := twoISPTopology(t, 41)
	rd1.Mirror(rd2)
	svc, err := net.DeployFT(testSvc, rd1, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	// Both redirectors hold the entry.
	for i, rd := range []*Redirector{rd1, rd2} {
		e := rd.Table().Lookup(testSvc)
		if e == nil || !e.FT || e.Primary != replicas[0].Addr() {
			t.Fatalf("redirector %d entry = %+v", i+1, e)
		}
	}

	r := &faultRun{t: t, net: net}
	a, b := r.dial(clientA, testSvc, []byte("population A"), false), r.dial(clientB, testSvc, []byte("population B"), false)
	net.RunFor(10 * time.Second)
	if string(a.got) != "population A" || string(b.got) != "population B" {
		t.Fatalf("echoes %q / %q", a.got, b.got)
	}
	_ = svc
}

func TestFailoverPropagatesToMirror(t *testing.T) {
	net, clientA, clientB, rd1, rd2, replicas := twoISPTopology(t, 42)
	rd1.Mirror(rd2)
	svc, err := net.DeployFT(testSvc, rd1, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	r, payload := &faultRun{t: t, net: net}, bytes.Repeat([]byte("z"), 400_000)
	a, b := r.dial(clientA, testSvc, payload, false), r.dial(clientB, testSvc, payload, false)
	net.RunFor(100 * time.Millisecond)

	svc.CrashPrimary()
	net.RunFor(4 * time.Minute)

	if !bytes.Equal(a.got, payload) {
		t.Errorf("client A (authority side): %d of %d bytes", len(a.got), len(payload))
	}
	if !bytes.Equal(b.got, payload) {
		t.Errorf("client B (mirror side): %d of %d bytes", len(b.got), len(payload))
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
	if _, err := net.DeployFT(testSvc, rd1, replicas, FTOptions{}, echoAccept()); err != nil {
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
	b := (&faultRun{t: t, net: net}).dial(clientB, testSvc, []byte("late but served"), false)
	net.RunFor(10 * time.Second)
	if string(b.got) != "late but served" {
		t.Fatalf("echo = %q", b.got)
	}
}
