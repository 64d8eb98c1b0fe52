package hydranet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hydranet/internal/app"
)

// TestLeaseDetectsIdleCrash: with heartbeats enabled, a dead primary is
// detected and replaced with NO traffic on the connection at all — closing
// the gap the paper's traffic-driven estimator leaves for idle services.
func TestLeaseDetectsIdleCrash(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 131, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Heartbeat: 500 * time.Millisecond}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	conn.OnConnected(func() { conn.Write([]byte("before|")) })
	net.RunFor(2 * time.Second)

	svc.CrashPrimary()
	// Total silence from the application; the lease must expire anyway.
	net.RunFor(10 * time.Second)
	if got := svc.Chain(); len(got) != 1 || got[0] != replicas[1].Addr() {
		t.Fatalf("idle crash not lease-detected: chain = %v", got)
	}
	if rd.Daemon().Stats().LeaseExpirations == 0 {
		t.Fatal("no lease expiration recorded")
	}
	// The promoted backup serves the connection when traffic resumes.
	conn.Write([]byte("after"))
	net.RunFor(30 * time.Second)
	if string(*echoed) != "before|after" {
		t.Fatalf("echo = %q", *echoed)
	}
}

// TestRecommissionKeepsOneHeartbeat: a host's heartbeat timer outlives its
// crash (a dead node just transmits nothing), so recommissioning the host
// must not start a second one. Over 10 idle seconds it sends as many frames
// after the recommission as it did before the crash.
func TestRecommissionKeepsOneHeartbeat(t *testing.T) {
	net, _, rd, replicas := ftTopology(t, 131, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Heartbeat: 500 * time.Millisecond}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	h := replicas[1]
	sent := func() uint64 {
		for _, hs := range net.Snapshot().Hosts {
			if hs.Name == h.Name() {
				return hs.Frames.Sent
			}
		}
		t.Fatalf("no snapshot for %s", h.Name())
		return 0
	}
	idleFrames := func() uint64 {
		before := sent()
		net.RunFor(10 * time.Second)
		return sent() - before
	}
	want := idleFrames()
	h.Crash()
	net.RunFor(5 * time.Second) // the lease expires
	h.Restart()
	if err := svc.Recommission(h); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got := svc.Chain(); len(got) != 2 {
		t.Fatalf("chain after recommission = %v, want 2 members", got)
	}
	if got := idleFrames(); got != want {
		t.Fatalf("%s sent %d frames in 10 idle seconds after recommission, %d before the crash", h.Name(), got, want)
	}
}

// TestLeaseSweepOrderIsReplayable: one lease sweep that expires the same
// host from several services re-chains each of them — a burst of chain-set
// and mirror datagrams — so the order the daemon walks its services in is
// the order of frames on the wire. Same seed, same pcap, byte for byte.
func TestLeaseSweepOrderIsReplayable(t *testing.T) {
	run := func(path string) []byte {
		net, _, rd, replicas := ftTopology(t, 134, 2)
		sess, err := net.Instrument(Instruments{Pcap: path})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			svc := ServiceID{Addr: testSvc.Addr + Addr(i), Port: testSvc.Port}
			if _, err := net.DeployFT(svc, rd, replicas,
				FTOptions{Heartbeat: 500 * time.Millisecond}, echoAccept()); err != nil {
				t.Fatal(err)
			}
		}
		net.Settle()
		replicas[0].Crash()
		net.RunFor(10 * time.Second)
		if got := rd.Daemon().Stats().LeaseExpirations; got != 8 {
			t.Fatalf("%d lease expirations, want one per service (8)", got)
		}
		if _, err := sess.Finish(); err != nil {
			t.Fatal(err)
		}
		pcap, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return pcap
	}
	dir := t.TempDir()
	first := run(filepath.Join(dir, "run0.pcap"))
	for i := 1; i < 6; i++ {
		if again := run(filepath.Join(dir, "again.pcap")); !bytes.Equal(first, again) {
			t.Fatalf("run %d of the same seed captured different frames than run 0", i)
		}
	}
}

// TestLeaseQuietWhenHealthy: heartbeats flowing → nobody expires, even over
// a long idle stretch.
func TestLeaseQuietWhenHealthy(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 132, 3)
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Heartbeat: 500 * time.Millisecond}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	app.Source(conn, []byte("ping"), false)
	net.RunFor(5 * time.Minute) // long healthy idle period
	if got := len(svc.Chain()); got != 3 {
		t.Fatalf("healthy chain shrank to %d under leases", got)
	}
	if rd.Daemon().Stats().LeaseExpirations != 0 {
		t.Fatal("spurious lease expirations")
	}
	if string(*echoed) != "ping" {
		t.Fatalf("echo = %q", *echoed)
	}
}

// TestVoluntaryLeaveViaFacade: FTService.Leave resplices the chain and
// promotes the successor when the primary departs, without any client
// disturbance.
func TestVoluntaryLeaveViaFacade(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 133, 3)
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	conn.OnConnected(func() { conn.Write([]byte("one|")) })
	net.RunFor(2 * time.Second)

	if err := svc.Leave(replicas[0]); err != nil { // the primary departs
		t.Fatal(err)
	}
	net.Settle()
	chain := svc.Chain()
	if len(chain) != 2 || chain[0] != replicas[1].Addr() {
		t.Fatalf("chain after primary leave = %v", chain)
	}
	conn.Write([]byte("two"))
	net.RunFor(60 * time.Second)
	if string(*echoed) != "one|two" {
		t.Fatalf("echo = %q", *echoed)
	}
	// Leaving twice (or a stranger) errors cleanly.
	stranger := net.AddHost("stranger", HostConfig{})
	if err := svc.Leave(stranger); err == nil {
		t.Fatal("Leave accepted a non-member")
	}
}
