package hydranet

import (
	"bytes"
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/icmp"
)

// ftTopology builds the paper's Figure 3 setup: a client, a redirector, and
// nReplicas host servers, all star-connected to the redirector.
func ftTopology(t *testing.T, seed int64, nReplicas int) (*Net, *Host, *Redirector, []*Host) {
	t.Helper()
	net := New(Config{Seed: seed})
	client := net.AddHost("client", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	var replicas []*Host
	for i := 0; i < nReplicas; i++ {
		h := net.AddHost("s"+string(rune('0'+i)), HostConfig{})
		replicas = append(replicas, h)
	}
	link := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Link(client, rd.Host, link)
	for _, h := range replicas {
		net.Link(h, rd.Host, link)
	}
	net.AutoRoute()
	return net, client, rd, replicas
}

// echoAccept returns an accept handler that echoes all input and closes
// when the peer does.
func echoAccept() func(*Conn) {
	return func(c *Conn) { app.Echo(c) }
}

// collect attaches a reader that accumulates everything received on c.
func collect(c *Conn) *[]byte {
	out := new([]byte)
	app.Collect(c, out)
	return out
}

var testSvc = ServiceID{Addr: MustAddr("192.20.225.20"), Port: 80}

func TestFTEchoPrimaryAndBackup(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 1, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	if got := svc.Chain(); len(got) != 2 || got[0] != replicas[0].Addr() {
		t.Fatalf("chain = %v, want [s0 s1]", got)
	}

	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	echoed := collect(conn)
	msg := []byte("hello, replicated world")
	conn.OnConnected(func() { conn.Write(msg) })
	net.RunFor(5 * time.Second)

	if !bytes.Equal(*echoed, msg) {
		t.Fatalf("echo = %q, want %q", *echoed, msg)
	}
	// Both replicas must have processed the request (hot standby).
	for i, r := range svc.Replicas() {
		if r.Port.Conns() != 1 {
			t.Errorf("replica %d tracks %d conns, want 1", i, r.Port.Conns())
		}
	}
}

func TestFTTransferMatchesPlainTCP(t *testing.T) {
	// The same bulk transfer through (a) a plain direct connection and
	// (b) the full FT chain must deliver identical bytes.
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 13)
	}

	net, client, rd, replicas := ftTopology(t, 2, 3)
	if _, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept()); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	echoed := collect(conn)
	feedAll(conn, payload, false)
	net.RunFor(5 * time.Minute)
	if !bytes.Equal(*echoed, payload) {
		t.Fatalf("FT echo returned %d bytes, want %d", len(*echoed), len(payload))
	}
}

// feedAll writes payload as send-buffer space allows; optionally closes.
func feedAll(c *Conn, payload []byte, closeWhenDone bool) {
	app.Source(c, payload, closeWhenDone)
}

func TestFailoverMidStream(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 3, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	echoed := collect(conn)
	var closedErr error
	closed := false
	conn.OnClosed(func(err error) { closed = true; closedErr = err })

	first := []byte("before the crash | ")
	second := []byte("after the crash")
	conn.OnConnected(func() { conn.Write(first) })
	net.RunFor(3 * time.Second)
	if !bytes.Equal(*echoed, first) {
		t.Fatalf("pre-crash echo = %q", *echoed)
	}

	// Kill the primary, then keep talking on the same connection.
	dead := svc.CrashPrimary()
	if dead != replicas[0] {
		t.Fatalf("primary was %v, want s0", dead)
	}
	conn.Write(second)
	net.RunFor(60 * time.Second)

	if closed {
		t.Fatalf("client connection died during failover: %v", closedErr)
	}
	want := append(append([]byte(nil), first...), second...)
	if !bytes.Equal(*echoed, want) {
		t.Fatalf("post-failover echo = %q, want %q", *echoed, want)
	}
	// The redirector must have reconfigured: chain is now just s1.
	chain := svc.Chain()
	if len(chain) != 1 || chain[0] != replicas[1].Addr() {
		t.Fatalf("chain after failover = %v, want [s1]", chain)
	}
	if p := svc.Primary(); p == nil || p.Host != replicas[1] {
		t.Fatal("s1 was not promoted to primary")
	}
}

func TestFailoverTransparentToClientAPI(t *testing.T) {
	// The client stack must observe no error, reset, or reconnect: the
	// connection object survives and the byte stream is continuous.
	net, client, rd, replicas := ftTopology(t, 4, 3)
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	payload := make([]byte, 512*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	feedAll(conn, payload, false)

	// Crash the primary mid-transfer (a 512 KiB echo over 10 Mbit/s takes
	// on the order of a second, so 150 ms is well inside the transfer).
	net.RunFor(150 * time.Millisecond)
	svc.CrashPrimary()
	net.RunFor(5 * time.Minute)

	if !bytes.Equal(*echoed, payload) {
		t.Fatalf("echo after mid-transfer failover: %d bytes, want %d",
			len(*echoed), len(payload))
	}
	if conn.State().String() != "ESTABLISHED" {
		t.Fatalf("client state = %v, want ESTABLISHED", conn.State())
	}
	if got := svc.Chain(); len(got) != 2 {
		t.Fatalf("chain = %v, want two survivors", got)
	}
}

func TestBackupCrashIsInvisible(t *testing.T) {
	// Killing a backup (the chain tail) must not disturb the client beyond
	// a brief stall.
	net, client, rd, replicas := ftTopology(t, 5, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	conn.OnConnected(func() { conn.Write([]byte("one|")) })
	net.RunFor(2 * time.Second)

	replicas[1].Crash() // the backup
	conn.Write([]byte("two"))
	net.RunFor(60 * time.Second)

	if string(*echoed) != "one|two" {
		t.Fatalf("echo = %q, want %q", *echoed, "one|two")
	}
	chain := svc.Chain()
	if len(chain) != 1 || chain[0] != replicas[0].Addr() {
		t.Fatalf("chain = %v, want [s0]", chain)
	}
}

// TestPingCountsOriginated: an echo request is a datagram the sender
// originates, counted once like any other.
func TestPingCountsOriginated(t *testing.T) {
	net := New(Config{Seed: 1})
	a := net.AddHost("a", HostConfig{})
	b := net.AddHost("b", HostConfig{})
	net.Link(a, b, LinkConfig{Rate: 10_000_000, Delay: time.Millisecond})
	net.AutoRoute()
	before := a.IP().Stats().Originated
	var got icmp.EchoResult
	a.Ping(b.Addr(), time.Second, func(r icmp.EchoResult) { got = r })
	net.RunFor(100 * time.Millisecond)
	if got.TimedOut || got.Unreachable || got.RTT == 0 {
		t.Fatalf("ping failed: %+v", got)
	}
	if n := a.IP().Stats().Originated - before; n != 1 {
		t.Fatalf("one ping raised the sender's IP.Originated by %d, want 1", n)
	}
}
