package tcp

import (
	"errors"
	"testing"
	"time"
)

func TestKeepAliveKeepsHealthyConnAlive(t *testing.T) {
	e, cli, srv := establishedPair(t, Config{})
	cli.SetKeepAlive(2*time.Second, 500*time.Millisecond, 3)
	var cliErr error
	cliClosed := false
	cli.OnClosed(func(err error) { cliClosed, cliErr = true, err })
	// A long idle period: probes flow, the peer answers, nothing dies.
	e.sched.RunUntil(e.sched.Now() + time.Minute)
	if cliClosed {
		t.Fatalf("healthy idle connection died: %v", cliErr)
	}
	if srv.State() != StateEstablished || cli.State() != StateEstablished {
		t.Fatalf("states: %v / %v", cli.State(), srv.State())
	}
}

func TestKeepAliveDetectsDeadPeer(t *testing.T) {
	e, cli, _ := establishedPair(t, Config{})
	cli.SetKeepAlive(2*time.Second, 500*time.Millisecond, 3)
	var cliErr error
	cli.OnClosed(func(err error) { cliErr = err })
	// Partition: the server disappears silently.
	e.link.SetLoss(1.0)
	e.sched.RunUntil(e.sched.Now() + time.Minute)
	if !errors.Is(cliErr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout from keepalive", cliErr)
	}
}

func TestKeepAliveResetByTraffic(t *testing.T) {
	e, cli, srv := establishedPair(t, Config{})
	cli.SetKeepAlive(3*time.Second, 500*time.Millisecond, 2)
	probes := 0
	e.server.SetTrace(func(dir string, _, _ Endpoint, seg *Segment) {
		if dir == "in" && len(seg.Payload) == 0 && seg.Flags == FlagACK &&
			seg.Seq.LT(srv.RcvNxt()) {
			probes++
		}
	})
	// Keep the connection busy more often than the idle threshold.
	for i := 0; i < 10; i++ {
		cli.Write([]byte("busy"))
		e.sched.RunUntil(e.sched.Now() + 2*time.Second)
	}
	if probes != 0 {
		t.Fatalf("%d keepalive probes despite constant traffic", probes)
	}
}

func TestIdleSince(t *testing.T) {
	e, cli, srv := establishedPair(t, Config{})
	start := e.sched.Now()
	e.sched.RunUntil(start + 10*time.Second)
	if got := e.sched.Now() - cli.lastActivity; got < 9*time.Second {
		t.Fatalf("idle for %v after 10s of silence", got)
	}
	srv.Write([]byte("wake up"))
	e.sched.RunUntil(e.sched.Now() + time.Second)
	if got := e.sched.Now() - cli.lastActivity; got > time.Second {
		t.Fatalf("idle for %v right after traffic", got)
	}
}

// TestOldAckSendsQueuedData: a pure ACK below rcvNxt — a keepalive probe, or
// what a peer sends once a retransmission timeout has pulled its send cursor
// back — can still acknowledge everything in flight. What that makes room
// for goes out at once: with nothing in flight the retransmission timer has
// stopped, so no later event would send it.
func TestOldAckSendsQueuedData(t *testing.T) {
	e, cli, srv := establishedPair(t, Config{})
	sent, _ := traceSends(e)
	e.link.SetLoss(1) // the server hears nothing; its ACK is forged below
	const mss = 1460
	cli.Write(pattern(4 * mss))
	if len(*sent) != 2 {
		t.Fatalf("sent %d segments into an initial window of two", len(*sent))
	}
	e.deliverToClient(&Segment{SrcPort: srv.Local().Port, DstPort: cli.Local().Port,
		Flags: FlagACK, Seq: cli.RcvNxt().Add(-1), Ack: cli.SndNxt(), Window: 32768})
	if len(*sent) != 4 {
		t.Errorf("an old ACK emptied the flight and %d of 4 segments have been sent", len(*sent))
	}
}
