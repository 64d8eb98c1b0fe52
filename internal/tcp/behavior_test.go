package tcp

import (
	"testing"
	"time"

	"hydranet/internal/netsim"
)

// TestSlowStartGrowth: with an unconstrained receiver window, the number of
// segments in flight roughly doubles every round trip until ssthresh.
func TestSlowStartGrowth(t *testing.T) {
	cfg := Config{RecvBufSize: 64 * 1024, SendBufSize: 256 * 1024,
		DelayedAckTimeout: 0 /* ack every segment, cleanest growth */}
	// Long-delay link so round trips are clearly separated.
	e := newEnv(t, netsim.LinkConfig{Rate: 100_000_000, Delay: 20 * time.Millisecond}, cfg)
	l, _ := e.server.Listen(0, 80)
	l.SetAcceptFunc(func(c *Conn) { attachSink(c) })

	// Record data-segment departure times at the client.
	var departures []time.Duration
	e.client.SetTrace(func(dir string, _, _ Endpoint, seg *Segment) {
		if dir == "out" && len(seg.Payload) > 0 {
			departures = append(departures, e.sched.Now())
		}
	})
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	c.WriteAll(pattern(120_000), true)
	e.sched.RunUntil(10 * time.Second)
	if len(departures) < 20 {
		t.Fatalf("only %d data segments", len(departures))
	}
	// Bucket departures into 40 ms round trips and check growth of the
	// first few buckets.
	buckets := map[int]int{}
	base := departures[0]
	for _, d := range departures {
		buckets[int((d-base)/(40*time.Millisecond))]++
	}
	first := buckets[0]
	second := buckets[1]
	if first == 0 || second < first*2-1 {
		t.Errorf("no exponential growth: rtt0=%d rtt1=%d", first, second)
	}
}

// TestRTOBackoffDoubles: consecutive timeouts space out exponentially.
func TestRTOBackoffDoubles(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{})
	l, _ := e.server.Listen(0, 80)
	l.SetAcceptFunc(func(c *Conn) {})
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	var sends []time.Duration
	e.client.SetTrace(func(dir string, _, _ Endpoint, seg *Segment) {
		if dir == "out" && len(seg.Payload) > 0 {
			sends = append(sends, e.sched.Now())
		}
	})
	c.OnConnected(func() {
		c.Write([]byte("doomed data"))
		e.link.SetLoss(1.0) // black-hole everything after the first send
	})
	e.sched.RunUntil(5 * time.Minute)
	if len(sends) < 4 {
		t.Fatalf("only %d transmissions", len(sends))
	}
	gap1 := sends[2] - sends[1]
	gap2 := sends[3] - sends[2]
	if gap2 < gap1*3/2 {
		t.Errorf("no exponential backoff: gaps %v then %v", gap1, gap2)
	}
}

// TestReadAfterPeerClose: data queued before the FIN remains readable after
// the connection is in CLOSE-WAIT (no data loss on close).
func TestReadAfterPeerClose(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{})
	l, _ := e.server.Listen(0, 80)
	var srv *Conn
	l.SetAcceptFunc(func(c *Conn) { srv = c }) // server app does NOT read yet
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	c.WriteAll([]byte("parting words"), true)
	e.sched.RunUntil(5 * time.Second)
	if srv == nil || !srv.PeerClosed() {
		t.Fatal("server did not reach CLOSE-WAIT")
	}
	buf := make([]byte, 64)
	n := srv.Read(buf)
	if string(buf[:n]) != "parting words" {
		t.Fatalf("read %q after peer close", buf[:n])
	}
}

// TestWindowUpdateResumesFlow: a receiver that stalls and then drains must
// reopen the flow without waiting for the persist timer (the window-update
// ACK does it).
func TestWindowUpdateResumesFlow(t *testing.T) {
	cfg := Config{RecvBufSize: 4096}
	e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, cfg)
	l, _ := e.server.Listen(0, 80)
	var srv *Conn
	l.SetAcceptFunc(func(c *Conn) { srv = c })
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	c.WriteAll(pattern(12_000), false)
	e.sched.RunUntil(3 * time.Second) // receiver full at 4096
	if srv.rcv.readable() != 4096 {
		t.Fatalf("readable = %d, want full buffer", srv.rcv.readable())
	}
	drainAt := e.sched.Now()
	got := 0
	buf := make([]byte, 2048)
	srv.OnReadable(func() {
		for {
			n := srv.Read(buf)
			if n == 0 {
				break
			}
			got += n
		}
	})
	for { // initial drain
		n := srv.Read(buf)
		if n == 0 {
			break
		}
		got += n
	}
	// Flow must resume well before the 1 s persist probe.
	e.sched.RunUntil(drainAt + 500*time.Millisecond)
	if got < 8000 {
		t.Fatalf("only %d bytes after drain; window update did not resume flow", got)
	}
}

// BenchmarkBulkTransfer measures simulator cost per transferred byte — the
// budget behind every experiment run.
func BenchmarkBulkTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newEnvB(b)
		e.net.Pool().SetPoison(false) // time the production path
		l, _ := e.server.Listen(0, 80)
		l.SetAcceptFunc(func(c *Conn) { attachSink(c) })
		c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
		c.WriteAll(make([]byte, 1<<20), true)
		e.sched.RunUntil(e.sched.Now() + 10*time.Minute)
	}
	b.SetBytes(1 << 20)
}

func newEnvB(b *testing.B) *env {
	b.Helper()
	// Mirror newEnv without *testing.T.
	return newEnvCommon(netsim.LinkConfig{Rate: 100_000_000, Delay: time.Millisecond}, Config{})
}
