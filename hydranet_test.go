package hydranet

import (
	"cmp"
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/icmp"
	"hydranet/internal/netsim"
)

// ftTopology builds the paper's Figure 3 setup: a client and nReplicas host
// servers s0, s1, …, each on its own 10 Mbit/s, 1 ms link to the
// redirector rd, with link's jitter and loss. link's Delay, when set, is the
// client's link's instead. The links come back client's first, then the
// replicas' in order.
func ftTopology(cfg Config, nReplicas int, link LinkConfig) (*Net, *Host, *Redirector, []*Host, []*netsim.Link) {
	net := New(cfg)
	client := net.AddHost("client", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	link.Rate, link.Delay = 10_000_000, cmp.Or(link.Delay, time.Millisecond)
	links := []*netsim.Link{net.Link(client, rd.Host, link)}
	link.Delay = time.Millisecond
	var replicas []*Host
	for i := 0; i < nReplicas; i++ {
		h := net.AddHost("s"+string(rune('0'+i)), HostConfig{})
		replicas = append(replicas, h)
		links = append(links, net.Link(h, rd.Host, link))
	}
	net.AutoRoute()
	return net, client, rd, replicas, links
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
	msg := []byte("hello, replicated world")
	faultCase{seed: 1, replicas: 2, send: msg, steps: []step{{after: 5 * time.Second}},
		verdict: verdict{echo: msg, chain: []int{0, 1}, check: func(r *faultRun) {
			// Both replicas must have processed the request (hot standby).
			for i, rep := range r.svc.Replicas() {
				if rep.Port.Conns() != 1 {
					t.Errorf("replica %d tracks %d conns, want 1", i, rep.Port.Conns())
				}
			}
		}}}.play(t)
}

// TestFTTransferMatchesPlainTCP: a bulk transfer through a three-replica
// chain echoes every byte unchanged.
func TestFTTransferMatchesPlainTCP(t *testing.T) {
	payload := pattern(64*1024, 13, 0)
	faultCase{seed: 2, replicas: 3, send: payload, steps: []step{{after: 5 * time.Minute}},
		verdict: verdict{echo: payload}}.play(t)
}

func TestFailoverMidStream(t *testing.T) {
	first, second := "before the crash | ", "after the crash"
	faultCase{seed: 3, replicas: 2, send: []byte(first), steps: []step{
		// Kill the primary, then keep talking on the same connection.
		{after: 3 * time.Second, do: func(r *faultRun) {
			if string(r.got) != first {
				t.Fatalf("pre-crash echo = %q", r.got)
			}
			r.replicas[0].Crash()
			r.conn.Write([]byte(second))
		}},
		{after: 60 * time.Second},
	}, verdict: verdict{echo: []byte(first + second), chain: []int{1}, check: func(r *faultRun) {
		if r.closed {
			t.Errorf("client connection died during failover: %v", r.err)
		}
		if p := r.svc.Primary(); p == nil || p.Host != r.replicas[1] {
			t.Error("s1 was not promoted to primary")
		}
	}}}.play(t)
}

// TestFailoverTransparentToClientAPI: the client stack must observe no
// error, reset, or reconnect: the connection object survives and the byte
// stream is continuous.
func TestFailoverTransparentToClientAPI(t *testing.T) {
	payload := pattern(512*1024, 1, 0)
	faultCase{seed: 4, replicas: 3, send: payload, steps: []step{
		// A 512 KiB echo over 10 Mbit/s takes on the order of a second, so
		// 150 ms is well inside the transfer.
		{after: 150 * time.Millisecond, do: crash(0)},
		{after: 5 * time.Minute},
	}, verdict: verdict{echo: payload, chain: []int{1, 2}, check: func(r *faultRun) {
		if s := r.conn.State(); s.String() != "ESTABLISHED" {
			t.Errorf("client state = %v, want ESTABLISHED", s)
		}
	}}}.play(t)
}

// TestBackupCrashIsInvisible: killing a backup (the chain tail) must not
// disturb the client beyond a brief stall.
func TestBackupCrashIsInvisible(t *testing.T) {
	faultCase{seed: 5, replicas: 2, send: []byte("one|"), steps: []step{
		{after: 2 * time.Second, do: func(r *faultRun) { r.replicas[1].Crash(); r.conn.Write([]byte("two")) }},
		{after: 60 * time.Second},
	}, verdict: verdict{echo: []byte("one|two"), chain: []int{0}}}.play(t)
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
