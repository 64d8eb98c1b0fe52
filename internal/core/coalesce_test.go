package core_test

import (
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/invariant"
	"hydranet/internal/obs"
	"hydranet/internal/tcp"
	"hydranet/internal/testbed"
)

// pair plays serve on a primary and a backup behind one redirector. A second
// after the client dials, body runs with the run and the backup's end of the
// client's connection. The run must break the violated rules and no other.
func pair(t *testing.T, seed int64, serve func(*hydranet.Conn), body func(r *testbed.Run, bc *tcp.Conn), violated ...string) {
	t.Helper()
	play(t, testbed.Scenario{Seed: seed, Replicas: 2, Accept: serve, Steps: []testbed.Step{{After: time.Second, Do: func(r *testbed.Run) {
		conns := r.Replicas[1].TCP().Conns()
		if len(conns) != 1 || conns[0].State() != tcp.StateEstablished {
			t.Fatalf("backup holds %d connections, want one established", len(conns))
		}
		body(r, conns[0])
	}}}}, violated...)
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
	pair(t, 91, drain, func(r *testbed.Run, bc *tcp.Conn) {
		sent := chainSends(r.Net, r.Replicas[1])
		suppressed, rcvNxt := bc.Stats().SegsSuppressed, bc.RcvNxt()

		r.Conn.Write(make([]byte, 100))
		r.Net.RunFor(time.Second)
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
	})
}

// TestCoalesceDepositAndEcho: the backup deposits a client segment, and its
// echo service answers in the same instant. The deposit reports the old send
// cursor and the suppressed echo the new one; the one message carries the
// larger of each.
func TestCoalesceDepositAndEcho(t *testing.T) {
	pair(t, 92, func(c *hydranet.Conn) { app.Echo(c) }, func(r *testbed.Run, bc *tcp.Conn) {
		sent := chainSends(r.Net, r.Replicas[1])
		sndNxt, rcvNxt := bc.SndNxt(), bc.RcvNxt()

		r.Write([]byte("one instant, one message"))
		r.Net.RunFor(time.Second)
		if !r.Echoed() {
			t.Fatalf("echoed %d bytes, garbled=%v", r.Delivered, r.Garbled)
		}
		n := r.Delivered
		if len(*sent) != 1 {
			t.Fatalf("backup sent %d chain messages for a deposit and its echo, want 1", len(*sent))
		}
		if e := (*sent)[0]; e.Seq != uint64(sndNxt.Add(n)) || e.Ack != uint64(rcvNxt.Add(n)) {
			t.Errorf("message carries seq %d ack %d, want the maxima %d %d", e.Seq, e.Ack, sndNxt.Add(n), rcvNxt.Add(n))
		}
	})
}

// TestRepeatAtLaterInstantSent: a report that repeats the last message's
// cursors at a later instant is sent, not dropped: it is how the channel
// repairs a lost message. The backup's first message is lost; the client's
// retransmission makes the backup answer with the same cursors, and that
// message releases the primary's deposit gate.
func TestRepeatAtLaterInstantSent(t *testing.T) {
	pair(t, 93, func(c *hydranet.Conn) { app.Echo(c) }, func(r *testbed.Run, _ *tcp.Conn) {
		net, backup, backupLink := r.Net, r.Replicas[1], r.Links[2]
		sent := chainSends(net, backup)
		net.Bus().Subscribe(func(e obs.Event) {
			if e.Node == backup.Name() && len(*sent) == 1 {
				// The message leaves the host right after this event: cut the
				// backup's link for the instant (the check below counts one
				// frame).
				backupLink.SetLoss(1)
				net.At(net.Now()+time.Microsecond, func() { backupLink.SetLoss(0) })
			}
		}, obs.KindChainSend)

		r.Write([]byte("lost, then repeated"))
		net.RunFor(time.Minute)
		if _, lost, _ := backupLink.Stats(); lost[0]+lost[1] != 1 {
			t.Fatalf("backup's link lost %v frames, want exactly the first chain message", lost)
		}
		if !r.Echoed() {
			t.Fatalf("echoed %d bytes, garbled=%v", r.Delivered, r.Garbled)
		}
		if len(*sent) < 2 {
			t.Fatalf("backup sent %d chain messages, want the lost one and its repeat", len(*sent))
		}
		first, repeat := (*sent)[0], (*sent)[1]
		if repeat.Seq != first.Seq || repeat.Ack != first.Ack || repeat.Time == first.Time {
			t.Errorf("second message seq %d ack %d at %v, want a repeat of seq %d ack %d at a later instant than %v",
				repeat.Seq, repeat.Ack, repeat.Time, first.Seq, first.Ack, first.Time)
		}
	})
}

// TestClosedConnSendsLastCursors: a backup whose service reads the request
// and aborts terminates in the instant it deposits. The deposit's cursors
// still leave at the end of that instant, after the connection is gone, and
// open the primary's deposit gate.
func TestClosedConnSendsLastCursors(t *testing.T) {
	buf := make([]byte, 64)
	pair(t, 94, func(c *hydranet.Conn) {
		c.OnReadable(func() {
			if c.Read(buf) > 0 {
				c.Abort()
			}
		})
	}, func(r *testbed.Run, bc *tcp.Conn) {
		net, backup := r.Net, r.Replicas[1]
		var closedAt time.Duration
		bc.OnClosed(func(error) { closedAt = net.Now() })
		sent := chainSends(net, backup)
		var sentAfterClose []bool
		net.Bus().Subscribe(func(e obs.Event) {
			if e.Node == backup.Name() {
				sentAfterClose = append(sentAfterClose, closedAt != 0)
			}
		}, obs.KindChainSend)
		rcvNxt := bc.RcvNxt()

		r.Conn.Write([]byte("request"))
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
		if r.Err == nil {
			t.Error("the client's connection is still open: the primary never deposited the request and aborted")
		}
	})
}

// TestPendingDroppedWithUpstream: cursors reported in an instant leave at its
// end only if the replica still has a predecessor then. A promotion in that
// instant clears it, and so does a crash. Promoting the backup while the
// primary lives breaks the membership rule.
func TestPendingDroppedWithUpstream(t *testing.T) {
	for _, end := range []string{"promote", "crash"} {
		var violated []string
		if end == "promote" {
			violated = []string{invariant.RuleMembership}
		}
		t.Run(end, func(t *testing.T) {
			pair(t, 95, drain, func(r *testbed.Run, _ *tcp.Conn) {
				backup := r.Replicas[1]
				sent := chainSends(r.Net, backup)
				port := backup.FTManager().Port(svc)
				port.SetUpstream(hydranet.MustAddr("10.99.0.1")) // a new predecessor: announce
				if end == "promote" {
					port.Promote()
				} else {
					backup.Crash()
				}
				r.Net.RunFor(0)
				if len(*sent) != 0 {
					t.Fatalf("%d chain messages left after the %s, want none", len(*sent), end)
				}
			}, violated...)
		})
	}
}
