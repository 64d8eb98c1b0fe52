package hydranet

import (
	"bytes"
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/netsim"
)

// ftTopologyLinks builds the star like ftTopology, from a whole Config, and
// returns the links (client first, then the replicas in order) so tests can
// inject partitions and loss.
func ftTopologyLinks(t *testing.T, cfg Config, nReplicas int) (
	*Net, *Host, *Redirector, []*Host, []*linkHandle) {
	t.Helper()
	net := New(cfg)
	client := net.AddHost("client", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	var replicas []*Host
	var links []*linkHandle
	link := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	links = append(links, &linkHandle{name: "client-rd", link: net.Link(client, rd.Host, link)})
	for i := 0; i < nReplicas; i++ {
		h := net.AddHost("s"+string(rune('0'+i)), HostConfig{})
		replicas = append(replicas, h)
		links = append(links, &linkHandle{name: h.Name() + "-rd", link: net.Link(h, rd.Host, link)})
	}
	net.AutoRoute()
	return net, client, rd, replicas, links
}

type linkHandle struct {
	name string
	link *netsim.Link
}

// TestPartitionedPrimaryTreatedAsFailed: the paper's congestion/"site
// disaster" case — the primary is alive but unreachable. It must be "shut
// down" (removed from the replica set) and the backup promoted, giving
// fail-stop behaviour for a non-crash fault.
func TestPartitionedPrimaryTreatedAsFailed(t *testing.T) {
	net, client, rd, replicas, links := ftTopologyLinks(t, Config{Seed: 31}, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	conn.OnConnected(func() { conn.Write([]byte("pre|")) })
	net.RunFor(2 * time.Second)

	// Cut the primary's link: it is alive but unreachable.
	for _, lh := range links {
		if lh.name == "s0-rd" {
			lh.link.SetLoss(1.0)
		}
	}
	conn.Write([]byte("post"))
	net.RunFor(2 * time.Minute)

	if string(*echoed) != "pre|post" {
		t.Fatalf("echo = %q, want %q", *echoed, "pre|post")
	}
	chain := svc.Chain()
	if len(chain) != 1 || chain[0] != replicas[1].Addr() {
		t.Fatalf("chain = %v, want partitioned primary removed", chain)
	}
	if !replicas[0].Alive() {
		t.Fatal("test invariant: the partitioned host is alive")
	}
}

// TestIdleConnectionSurvivesCrash: the primary dies while the connection is
// idle. Nothing can be detected until traffic resumes — and then failover
// must still work.
func TestIdleConnectionSurvivesCrash(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 32, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	conn.OnConnected(func() { conn.Write([]byte("before|")) })
	net.RunFor(2 * time.Second)

	svc.CrashPrimary()
	// A long idle period: no traffic, no detection possible.
	net.RunFor(30 * time.Second)
	if got := len(svc.Chain()); got != 2 {
		t.Fatalf("idle crash already detected (chain=%d) — nothing should trigger it", got)
	}
	// Traffic resumes; detection and failover follow.
	conn.Write([]byte("after"))
	net.RunFor(2 * time.Minute)
	if string(*echoed) != "before|after" {
		t.Fatalf("echo = %q", *echoed)
	}
	if got := svc.Chain(); len(got) != 1 || got[0] != replicas[1].Addr() {
		t.Fatalf("chain = %v after resumed traffic", got)
	}
}

// TestIdleCrashDetectedWithKeepalive: with client-side keepalive enabled,
// even an idle connection gives the estimator a signal — the probes flow
// through the redirector, go unanswered by the dead primary, and the
// backups' own retransmission-free probe handling plus the client's probe
// retransmissions trip the detector without any application traffic.
func TestIdleCrashDetectedWithKeepalive(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 36, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 3}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	conn.OnConnected(func() {
		conn.SetKeepAlive(2*time.Second, time.Second, 100)
		conn.Write([]byte("before|"))
	})
	net.RunFor(2 * time.Second)

	svc.CrashPrimary()
	// No application traffic at all; keepalive probes are the only signal.
	net.RunFor(2 * time.Minute)
	if got := svc.Chain(); len(got) != 1 || got[0] != replicas[1].Addr() {
		t.Fatalf("idle crash not detected via keepalive: chain = %v", got)
	}
	// The connection still works afterwards.
	conn.Write([]byte("after"))
	net.RunFor(30 * time.Second)
	if string(*echoed) != "before|after" {
		t.Fatalf("echo = %q", *echoed)
	}
}

// TestClientAbortTearsDownAllReplicas: a client RST is multicast like any
// other packet; every replica must drop its connection state.
func TestClientAbortTearsDownAllReplicas(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 33, 3)
	if _, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept()); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	conn.OnConnected(func() { conn.Write([]byte("hello")) })
	net.RunFor(2 * time.Second)
	for _, h := range replicas {
		if h.TCP().NumConns() != 1 {
			t.Fatalf("%s has %d conns before abort", h.Name(), h.TCP().NumConns())
		}
	}
	conn.Abort()
	net.RunFor(5 * time.Second)
	for _, h := range replicas {
		if got := h.TCP().NumConns(); got != 0 {
			t.Errorf("%s still holds %d connections after client RST", h.Name(), got)
		}
	}
}

// TestClientCloseTearsDownAllReplicas: orderly shutdown propagates to every
// replica through chain-gated FINs.
func TestClientCloseTearsDownAllReplicas(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 34, 3)
	if _, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept()); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	app.Source(conn, []byte("goodbye"), true) // write then close
	var closedErr error
	closed := false
	conn.OnClosed(func(err error) { closed, closedErr = true, err })
	net.RunFor(2 * time.Minute)
	if string(*echoed) != "goodbye" {
		t.Fatalf("echo before close = %q", *echoed)
	}
	if !closed || closedErr != nil {
		t.Fatalf("client close: done=%v err=%v", closed, closedErr)
	}
	for _, h := range replicas {
		if got := h.TCP().NumConns(); got != 0 {
			t.Errorf("%s still holds %d connections after orderly close", h.Name(), got)
		}
	}
}

// TestFTTransferUnderJitter: heavy reordering on every link (including the
// acknowledgment channel — UDP chain messages may arrive out of order, and
// the MaxSeq merge must tolerate that).
func TestFTTransferUnderJitter(t *testing.T) {
	net := New(Config{Seed: 37})
	client := net.AddHost("client", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	var replicas []*Host
	link := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond, Jitter: 1500 * time.Microsecond}
	net.Link(client, rd.Host, link)
	for i := 0; i < 3; i++ {
		h := net.AddHost("s"+string(rune('0'+i)), HostConfig{})
		replicas = append(replicas, h)
		net.Link(h, rd.Host, link)
	}
	net.AutoRoute()
	if _, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept()); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	payload := make([]byte, 20_000)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	app.Source(conn, payload, false)
	net.RunFor(time.Minute)
	if !bytes.Equal(*echoed, payload) {
		t.Fatalf("FT echo under jitter: %d of %d bytes", len(*echoed), len(payload))
	}
}

// TestReplicaStreamAgreementUnderLoss: the atomicity property. Whatever the
// loss pattern, the byte streams deposited to the replica applications must
// be identical — no replica may deliver data another one missed.
func TestReplicaStreamAgreementUnderLoss(t *testing.T) {
	net, client, rd, replicas, links := ftTopologyLinks(t, Config{Seed: 35}, 3)
	for _, lh := range links {
		lh.link.SetLoss(0.03)
	}
	// Record the byte stream each replica's application consumes.
	streams := make(map[string]*[]byte)
	accept := func(c *Conn) {
		host := c // closure var; identify by listener host via local addr is shared...
		_ = host
		buf := make([]byte, 4096)
		var sink *[]byte
		// Identify the replica by which TCP stack owns the conn.
		for _, h := range replicas {
			for _, cc := range h.TCP().Conns() {
				if cc == c {
					s := streams[h.Name()]
					if s == nil {
						s = new([]byte)
						streams[h.Name()] = s
					}
					sink = s
				}
			}
		}
		if sink == nil {
			t.Error("accepted conn not found on any replica")
			sink = new([]byte)
		}
		c.OnReadable(func() {
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				*sink = append(*sink, buf[:n]...)
			}
		})
	}
	if _, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, accept); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	conn, _ := client.Dial(testSvc)
	payload := make([]byte, 150_000)
	for i := range payload {
		payload[i] = byte(i * 37)
	}
	app.Source(conn, payload, false)
	net.RunFor(10 * time.Minute)

	if len(streams) != 3 {
		t.Fatalf("streams recorded for %d replicas, want 3", len(streams))
	}
	var ref []byte
	for name, s := range streams {
		if ref == nil {
			ref = *s
			continue
		}
		// All streams must be prefixes of one another (tail may differ by
		// in-flight gating); compare the common prefix and demand near-
		// complete delivery.
		n := len(ref)
		if len(*s) < n {
			n = len(*s)
		}
		if !bytes.Equal(ref[:n], (*s)[:n]) {
			t.Fatalf("replica %s diverged from the common stream", name)
		}
	}
	// The client's stream must have gone through essentially completely.
	for name, s := range streams {
		if len(*s) < len(payload)*9/10 {
			t.Errorf("replica %s consumed only %d of %d bytes", name, len(*s), len(payload))
		}
	}
}
