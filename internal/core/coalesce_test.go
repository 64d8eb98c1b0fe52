package core_test

import (
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/netsim"
	"hydranet/internal/obs"
	"hydranet/internal/tcp"
	"hydranet/internal/testbed"
)

// pair deploys serve on a primary and a backup behind one redirector and
// establishes one client connection. It returns the backup's end of that
// connection and the backup's link to the redirector.
func pair(t *testing.T, seed int64, serve func(*hydranet.Conn)) (
	*hydranet.Net, *hydranet.Conn, *hydranet.Host, *tcp.Conn, *netsim.Link) {
	t.Helper()
	r := testbed.Star(hydranet.New(hydranet.Config{Seed: seed}), 2, hydranet.LinkConfig{})
	net, s1, backupLink := r.Net, r.Replicas[1], r.Links[2]
	if _, err := net.DeployFT(svc, r.Redirector, r.Replicas, hydranet.FTOptions{}, serve); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, err := r.Client.Dial(svc)
	if err != nil {
		t.Fatal(err)
	}
	net.RunFor(time.Second)
	conns := s1.TCP().Conns()
	if len(conns) != 1 || conns[0].State() != tcp.StateEstablished {
		t.Fatalf("backup holds %d connections, want one established", len(conns))
	}
	return net, conn, s1, conns[0], backupLink
}

// chainSends records every chain message node sends from now on.
func chainSends(net *hydranet.Net, node *hydranet.Host) *[]obs.Event {
	var sent []obs.Event
	net.Bus().Subscribe(func(e obs.Event) {
		if e.Node == node.Name() {
			sent = append(sent, e)
		}
	}, obs.KindChainSend)
	return &sent
}

// drain is a service that reads everything and never answers.
func drain(c *hydranet.Conn) {
	buf := make([]byte, 4096)
	c.OnReadable(func() {
		for c.Read(buf) > 0 {
		}
	})
}

// TestCoalesceDepositAndAck: the backup deposits a client segment and
// answers it with a pure ACK in the same instant. Both report the same
// cursors up the chain, and one message carries them.
func TestCoalesceDepositAndAck(t *testing.T) {
	net, client, backup, bc, _ := pair(t, 91, drain)
	sent := chainSends(net, backup)
	suppressed, rcvNxt := bc.Stats().SegsSuppressed, bc.RcvNxt()

	client.Write(make([]byte, 100))
	net.RunFor(time.Second)
	if got := bc.RcvNxt(); got != rcvNxt.Add(100) {
		t.Fatalf("backup deposited to %d, want %d", got, rcvNxt.Add(100))
	}
	if got := bc.Stats().SegsSuppressed - suppressed; got != 1 {
		t.Fatalf("backup suppressed %d segments, want its one pure ACK", got)
	}
	if len(*sent) != 1 {
		t.Fatalf("backup sent %d chain messages for a deposit and an ACK in one instant, want 1", len(*sent))
	}
	if e := (*sent)[0]; e.Seq != uint64(bc.SndNxt()) || e.Ack != uint64(bc.RcvNxt()) {
		t.Errorf("message carries seq %d ack %d, want %d %d", e.Seq, e.Ack, bc.SndNxt(), bc.RcvNxt())
	}
}

// TestCoalesceDepositAndEcho: the backup deposits a client segment, and its
// echo service answers in the same instant. The deposit reports the old send
// cursor and the suppressed echo the new one; the one message carries the
// larger of each.
func TestCoalesceDepositAndEcho(t *testing.T) {
	net, client, backup, bc, _ := pair(t, 92, func(c *hydranet.Conn) { app.Echo(c) })
	sent := chainSends(net, backup)
	var echoed []byte
	app.Collect(client, &echoed)
	sndNxt, rcvNxt := bc.SndNxt(), bc.RcvNxt()

	client.Write([]byte("one instant, one message"))
	net.RunFor(time.Second)
	if string(echoed) != "one instant, one message" {
		t.Fatalf("echo = %q", echoed)
	}
	n := len(echoed)
	if len(*sent) != 1 {
		t.Fatalf("backup sent %d chain messages for a deposit and its echo, want 1", len(*sent))
	}
	if e := (*sent)[0]; e.Seq != uint64(sndNxt.Add(n)) || e.Ack != uint64(rcvNxt.Add(n)) {
		t.Errorf("message carries seq %d ack %d, want the maxima %d %d", e.Seq, e.Ack, sndNxt.Add(n), rcvNxt.Add(n))
	}
}

// TestRepeatAtLaterInstantSent: a report that repeats the last message's
// cursors at a later instant is sent, not dropped: it is how the channel
// repairs a lost message. The backup's first message is lost; the client's
// retransmission makes the backup answer with the same cursors, and that
// message releases the primary's deposit gate.
func TestRepeatAtLaterInstantSent(t *testing.T) {
	net, client, backup, _, backupLink := pair(t, 93, func(c *hydranet.Conn) { app.Echo(c) })
	sent := chainSends(net, backup)
	net.Bus().Subscribe(func(e obs.Event) {
		if e.Node == backup.Name() && len(*sent) == 1 {
			// The message leaves the host right after this event: cut the
			// backup's link for the instant (the check below counts one frame).
			backupLink.SetLoss(1)
			net.At(net.Now()+time.Microsecond, func() { backupLink.SetLoss(0) })
		}
	}, obs.KindChainSend)
	var echoed []byte
	app.Collect(client, &echoed)

	client.Write([]byte("lost, then repeated"))
	net.RunFor(time.Minute)
	if _, lost, _ := backupLink.Stats(); lost[0]+lost[1] != 1 {
		t.Fatalf("backup's link lost %v frames, want exactly the first chain message", lost)
	}
	if string(echoed) != "lost, then repeated" {
		t.Fatalf("echo = %q", echoed)
	}
	if len(*sent) < 2 {
		t.Fatalf("backup sent %d chain messages, want the lost one and its repeat", len(*sent))
	}
	first, repeat := (*sent)[0], (*sent)[1]
	if repeat.Seq != first.Seq || repeat.Ack != first.Ack || repeat.Time == first.Time {
		t.Errorf("second message seq %d ack %d at %v, want a repeat of seq %d ack %d at a later instant than %v",
			repeat.Seq, repeat.Ack, repeat.Time, first.Seq, first.Ack, first.Time)
	}
}

// TestClosedConnSendsLastCursors: a backup whose service reads the request
// and aborts terminates in the instant it deposits. The deposit's cursors
// still leave at the end of that instant, after the connection is gone, and
// open the primary's deposit gate.
func TestClosedConnSendsLastCursors(t *testing.T) {
	buf := make([]byte, 64)
	net, client, backup, bc, _ := pair(t, 94, func(c *hydranet.Conn) {
		c.OnReadable(func() {
			if c.Read(buf) > 0 {
				c.Abort()
			}
		})
	})
	var closedAt time.Duration
	bc.OnClosed(func(error) { closedAt = net.Now() })
	var clientErr error
	client.OnClosed(func(err error) { clientErr = err })
	sent := chainSends(net, backup)
	var sentAfterClose []bool
	net.Bus().Subscribe(func(e obs.Event) {
		if e.Node == backup.Name() {
			sentAfterClose = append(sentAfterClose, closedAt != 0)
		}
	}, obs.KindChainSend)
	rcvNxt := bc.RcvNxt()

	client.Write([]byte("request"))
	net.RunFor(time.Second)
	if closedAt == 0 {
		t.Fatal("the backup's connection never closed")
	}
	if len(*sent) != 1 {
		t.Fatalf("backup sent %d chain messages, want 1", len(*sent))
	}
	if e := (*sent)[0]; e.Ack != uint64(rcvNxt.Add(len("request"))) || e.Time != closedAt || !sentAfterClose[0] {
		t.Errorf("message ack %d at %v (after the close: %v), want ack %d at the close instant %v",
			e.Ack, e.Time, sentAfterClose[0], rcvNxt.Add(len("request")), closedAt)
	}
	if clientErr == nil {
		t.Error("the client's connection is still open: the primary never deposited the request and aborted")
	}
}

// TestPendingDroppedWithUpstream: cursors reported in an instant leave at its
// end only if the replica still has a predecessor then. A promotion in that
// instant clears it, and so does a crash.
func TestPendingDroppedWithUpstream(t *testing.T) {
	for _, end := range []string{"promote", "crash"} {
		t.Run(end, func(t *testing.T) {
			net, _, backup, _, _ := pair(t, 95, drain)
			sent := chainSends(net, backup)
			port := backup.FTManager().Port(svc)
			port.SetUpstream(hydranet.MustAddr("10.99.0.1")) // a new predecessor: announce
			if end == "promote" {
				port.Promote()
			} else {
				backup.Crash()
			}
			net.RunFor(0)
			if len(*sent) != 0 {
				t.Fatalf("%d chain messages left after the %s, want none", len(*sent), end)
			}
		})
	}
}
