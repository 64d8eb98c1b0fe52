package ttcp

import (
	"testing"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/sim"
	"hydranet/internal/tcp"
)

func rig(t *testing.T) (*sim.Scheduler, *tcp.Stack, *tcp.Stack, ipv4.Addr, *netsim.Network) {
	t.Helper()
	sched := sim.NewScheduler(81)
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
	cfg := tcp.Config{TimeWaitDuration: time.Millisecond}
	return sched, tcp.NewStack(sa, cfg), tcp.NewStack(sb, cfg), serverAddr, nw
}

func TestParamsCount(t *testing.T) {
	if got := (Params{BufLen: 100, Count: 7}).count(); got != 7 {
		t.Errorf("count = %d", got)
	}
	if got := (Params{BufLen: 100, TotalBytes: 1000}).count(); got != 10 {
		t.Errorf("count = %d", got)
	}
	if got := (Params{BufLen: 300, TotalBytes: 1000}).count(); got != 4 {
		t.Errorf("count = %d (must round up)", got)
	}
}

func TestTransferCompletesAndMeasures(t *testing.T) {
	sched, cs, ss, serverAddr, _ := rig(t)
	l, _ := ss.Listen(0, 5001)
	var rcvd *int
	l.SetAcceptFunc(func(c *tcp.Conn) { rcvd = Sink(c) })
	conn, err := cs.Connect(0, tcp.Endpoint{Addr: serverAddr, Port: 5001})
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	done := false
	Transmit(sched, conn, Params{BufLen: 1024, TotalBytes: 100 * 1024},
		func(r Result) { res = r; done = true })
	sched.RunUntil(5 * time.Minute)
	if !done {
		t.Fatal("transfer never completed")
	}
	if res.Err != nil {
		t.Fatalf("transfer error: %v", res.Err)
	}
	if res.Bytes != 100*1024 || *rcvd != 100*1024 {
		t.Fatalf("bytes: sent %d, received %d", res.Bytes, *rcvd)
	}
	if res.Elapsed() <= 0 {
		t.Fatal("elapsed not positive")
	}
	if tp := res.ThroughputKBps(); tp < 100 || tp > 1300 {
		t.Errorf("throughput %v kB/s outside sanity range for 10 Mbit/s", tp)
	}
}

func TestWriteSizeIsSegmentSize(t *testing.T) {
	// The defining property of the paper's measurement: each ttcp write is
	// one TCP segment, never coalesced.
	sched, cs, ss, serverAddr, _ := rig(t)
	l, _ := ss.Listen(0, 5001)
	l.SetAcceptFunc(func(c *tcp.Conn) { Sink(c) })
	sizes := map[int]int{}
	cs.SetTrace(func(dir string, _, _ tcp.Endpoint, seg *tcp.Segment) {
		if dir == "out" && len(seg.Payload) > 0 {
			sizes[len(seg.Payload)]++
		}
	})
	conn, _ := cs.Connect(0, tcp.Endpoint{Addr: serverAddr, Port: 5001})
	done := false
	Transmit(sched, conn, Params{BufLen: 100, Count: 500}, func(Result) { done = true })
	sched.RunUntil(5 * time.Minute)
	if !done {
		t.Fatal("transfer never completed")
	}
	if len(sizes) != 1 || sizes[100] < 500 {
		t.Fatalf("segment size histogram = %v, want only 100-byte segments", sizes)
	}
}

func TestThroughputScalesWithWriteSize(t *testing.T) {
	run := func(buf int) float64 {
		sched, cs, ss, serverAddr, _ := rig(t)
		l, _ := ss.Listen(0, 5001)
		l.SetAcceptFunc(func(c *tcp.Conn) { Sink(c) })
		conn, _ := cs.Connect(0, tcp.Endpoint{Addr: serverAddr, Port: 5001})
		var res Result
		Transmit(sched, conn, Params{BufLen: buf, TotalBytes: 64 * 1024},
			func(r Result) { res = r })
		sched.RunUntil(10 * time.Minute)
		return res.ThroughputKBps()
	}
	small, large := run(64), run(1024)
	if small <= 0 || large <= 0 {
		t.Fatal("zero throughput")
	}
	if large <= small {
		t.Fatalf("throughput must rise with write size: 64B=%.1f 1024B=%.1f", small, large)
	}
}
