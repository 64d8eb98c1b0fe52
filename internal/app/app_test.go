package app

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/sim"
	"hydranet/internal/tcp"
	"hydranet/internal/ttcp"
)

// pairConn builds two linked hosts and returns (sched, client stack, server
// stack, server address).
func pairConn(t *testing.T, cfg tcp.Config) (*sim.Scheduler, *tcp.Stack, *tcp.Stack, ipv4.Addr) {
	t.Helper()
	sched := sim.NewScheduler(71)
	nw := netsim.New(sched)
	a := nw.AddNode(netsim.NodeConfig{Name: "client"})
	b := nw.AddNode(netsim.NodeConfig{Name: "server"})
	nw.Connect(a, b, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond})
	sa, sb := ipv4.NewStack(a, sched), ipv4.NewStack(b, sched)
	serverAddr := inet.MustParseAddr("10.0.0.2")
	sa.SetAddr(0, inet.MustParseAddr("10.0.0.1"))
	sb.SetAddr(0, serverAddr)
	sa.Routes().AddDefault(0)
	sb.Routes().AddDefault(0)
	return sched, tcp.NewStack(sa, cfg), tcp.NewStack(sb, cfg), serverAddr
}

func TestEchoBackpressure(t *testing.T) {
	// Tiny buffers force Write to return partial/zero inside Echo; no byte
	// may be lost or reordered.
	cfg := tcp.Config{SendBufSize: 2048, RecvBufSize: 2048}
	sched, cs, ss, serverAddr := pairConn(t, cfg)
	l, _ := ss.Listen(0, 7)
	l.SetAcceptFunc(Echo)
	payload := make([]byte, 100_000)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	conn, err := cs.Connect(0, tcp.Endpoint{Addr: serverAddr, Port: 7})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	Collect(conn, &got)
	Source(conn, payload, true)
	sched.RunUntil(5 * time.Minute)
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo through tiny buffers: %d of %d bytes", len(got), len(payload))
	}
}

func TestEchoClosesAfterPeer(t *testing.T) {
	sched, cs, ss, serverAddr := pairConn(t, tcp.Config{TimeWaitDuration: time.Second})
	l, _ := ss.Listen(0, 7)
	l.SetAcceptFunc(Echo)
	conn, _ := cs.Connect(0, tcp.Endpoint{Addr: serverAddr, Port: 7})
	closed := false
	conn.OnClosed(func(err error) { closed = err == nil })
	Source(conn, []byte("bye"), true)
	sched.RunUntil(time.Minute)
	if !closed {
		t.Fatal("echo server did not close back; client never finished")
	}
	if ss.NumConns() != 0 {
		t.Fatalf("server still tracks %d conns", ss.NumConns())
	}
}

func TestSinkCountsAndEOF(t *testing.T) {
	sched, cs, ss, serverAddr := pairConn(t, tcp.Config{})
	l, _ := ss.Listen(0, 9)
	var got *int
	l.SetAcceptFunc(func(c *tcp.Conn) { got = ttcp.Sink(c) })
	conn, _ := cs.Connect(0, tcp.Endpoint{Addr: serverAddr, Port: 9})
	Source(conn, make([]byte, 50_000), true)
	sched.RunUntil(time.Minute)
	if got == nil || *got != 50_000 {
		t.Fatalf("sink consumed %v bytes, want 50000", got)
	}
	if !conn.PeerClosed() {
		t.Fatalf("sink did not close its end after EOF (client in %v)", conn.State())
	}
}

func TestSourceOnAlreadyEstablishedConn(t *testing.T) {
	sched, cs, ss, serverAddr := pairConn(t, tcp.Config{})
	l, _ := ss.Listen(0, 9)
	var got *int
	l.SetAcceptFunc(func(c *tcp.Conn) { got = ttcp.Sink(c) })
	conn, _ := cs.Connect(0, tcp.Endpoint{Addr: serverAddr, Port: 9})
	sched.RunUntil(time.Second) // establish first
	Source(conn, []byte("late start"), true)
	sched.RunUntil(time.Minute)
	if got == nil || *got != 10 {
		t.Fatalf("late Source delivered %v bytes, want 10", got)
	}
}

// TestSourceAllocatesNothing: Source keeps its progress in the connection,
// so handing a connection a payload costs no allocation — neither before the
// handshake nor on an established connection.
func TestSourceAllocatesNothing(t *testing.T) {
	sched, cs, ss, serverAddr := pairConn(t, tcp.Config{})
	l, _ := ss.Listen(0, 9)
	l.SetAcceptFunc(func(c *tcp.Conn) { ttcp.Sink(c) })
	payload := make([]byte, 4096)
	for _, established := range []bool{false, true} {
		conn, _ := cs.Connect(0, tcp.Endpoint{Addr: serverAddr, Port: 9})
		if established {
			sched.RunUntil(sched.Now() + time.Second)
			payload = nil // nothing to write, so no socket-buffer array is drawn
		}
		if n := testing.AllocsPerRun(100, func() { Source(conn, payload, false) }); n != 0 {
			t.Errorf("Source on a connection in %v allocates %v times, want 0", conn.State(), n)
		}
	}
}

// TestEchoBacklogKeepsOneArray: Echo's writes are gated by a 2 KiB send
// buffer, so every burst it reads waits in its backlog and drains a piece at
// a time. The backlog used to be re-sliced from the front and re-allocated
// whenever append ran out of capacity behind it — once per few KiB echoed;
// now it is one array, and echoing four times the bytes costs no more
// allocations.
func TestEchoBacklogKeepsOneArray(t *testing.T) {
	echoMallocs := func(total int) uint64 {
		cfg := tcp.Config{SendBufSize: 2048, RecvBufSize: 2048}
		sched, cs, ss, serverAddr := pairConn(t, cfg)
		l, _ := ss.Listen(0, 7)
		l.SetAcceptFunc(Echo)
		payload := make([]byte, total)
		for i := range payload {
			payload[i] = byte(i * 11)
		}
		conn, err := cs.Connect(0, tcp.Endpoint{Addr: serverAddr, Port: 7})
		if err != nil {
			t.Fatal(err)
		}
		got, buf := 0, make([]byte, 4096)
		conn.OnReadable(func() {
			for {
				n := conn.Read(buf)
				if n == 0 {
					return
				}
				if !bytes.Equal(buf[:n], payload[got:got+n]) {
					t.Fatalf("echo corrupted after %d bytes", got)
				}
				got += n
			}
		})
		Source(conn, payload, true)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sched.RunUntil(time.Hour)
		runtime.ReadMemStats(&m1)
		if got != total {
			t.Fatalf("echoed %d of %d bytes", got, total)
		}
		return m1.Mallocs - m0.Mallocs
	}
	one, four := echoMallocs(1<<20), echoMallocs(4<<20)
	t.Logf("mallocs echoing 1 MiB: %d, 4 MiB: %d", one, four)
	if four > one+16 {
		t.Errorf("echoing 4 MiB allocates %d times, 1 MiB %d: the backlog is being re-allocated as it drains", four, one)
	}
}

// TestEchoAllocs: one Echo call is two objects, its record — which holds
// the read buffer and the backlog's first array — and the one callback it
// installs for readable and writable events.
func TestEchoAllocs(t *testing.T) {
	_, cs, _, serverAddr := pairConn(t, tcp.Config{})
	conn, err := cs.Connect(0, tcp.Endpoint{Addr: serverAddr, Port: 7})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { Echo(conn) }); allocs != 2 {
		t.Errorf("Echo allocates %v objects, want 2", allocs)
	}
}
