package core_test

import (
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/core"
	"hydranet/internal/obs"
	"hydranet/internal/tcp"
	"hydranet/internal/testbed"
)

// tailRun is a primary and a backup, the chain's tail, pushing a 256-KiB
// answer to a client that reads it and says nothing.
type tailRun struct {
	net      *hydranet.Net
	client   *hydranet.Conn
	replicas []*hydranet.Host
	port     *core.ReplicatedPort // the tail's
	conn     *tcp.Conn            // the tail's end of the connection
	rtos     []time.Duration      // the tail's own retransmission timeouts
}

// pushThroughTail plays the answer and runs body 40 ms into it, mid-answer.
func pushThroughTail(t *testing.T, threshold int, body func(*tailRun)) {
	t.Helper()
	answer := make([]byte, 256<<10)
	tr := &tailRun{}
	play(t, testbed.Scenario{Seed: 97, Replicas: 2, Threshold: threshold, Echo: answer,
		Accept: func(c *hydranet.Conn) { app.Source(c, answer, false) },
		Setup: func(r *testbed.Run) {
			r.Net.Bus().Subscribe(func(e obs.Event) {
				if e.Node == "s1" {
					tr.rtos = append(tr.rtos, e.Time)
				}
			}, obs.KindRTO)
		},
		Steps: []testbed.Step{{After: 40 * time.Millisecond, Do: func(r *testbed.Run) {
			conns := r.Replicas[1].TCP().Conns()
			if len(conns) != 1 || conns[0].SndNxt() == conns[0].SndUna() {
				t.Fatalf("the tail holds %d connections, want one with output in flight", len(conns))
			}
			tr.net, tr.client, tr.replicas, tr.conn = r.Net, r.Conn, r.Replicas, conns[0]
			tr.port = r.Replicas[1].FTManager().Port(svc)
			body(tr)
		}}},
	})
}

// strikes reads the tail's count and whether the tail-silence rule runs.
func (r *tailRun) strikes() (int, bool) { return r.port.Strikes(r.client.Local()) }

// toFirstRTO runs until the tail's first own timeout and on to half an RTO
// past it, so later steps of one RTO land between the rule's counts.
func (r *tailRun) toFirstRTO(t *testing.T) {
	t.Helper()
	for deadline := r.net.Now() + 10*time.Second; len(r.rtos) == 0; r.net.RunFor(time.Millisecond) {
		if r.net.Now() > deadline {
			t.Fatal("the tail never timed out")
		}
	}
	r.net.RunUntil(r.rtos[0] + r.conn.BaseRTO()/2)
	if n, on := r.strikes(); n != 1 || !on {
		t.Fatalf("after the tail's first timeout: count %d, counting %v; want 1 and true", n, on)
	}
}

// TestTailCountsEachRTOOfASilentPredecessor: after a primary crash nothing
// acknowledges the tail's output, and the client, with nothing outstanding,
// sends nothing. The tail's own timeouts back off; from the first of them on
// it counts once per un-backed-off RTO instead, so its count grows by one per
// RTO whenever its own later timeouts fall. Promotion ends the count.
func TestTailCountsEachRTOOfASilentPredecessor(t *testing.T) {
	pushThroughTail(t, 1000, func(r *tailRun) {
		r.replicas[0].Crash()
		r.toFirstRTO(t)
		base := r.conn.BaseRTO()
		if r.conn.RTO() <= base {
			t.Fatalf("RTO %v after a timeout, base %v: want it backed off", r.conn.RTO(), base)
		}
		for i := 1; i <= 8; i++ {
			before, _ := r.strikes()
			rtos := len(r.rtos)
			r.net.RunFor(base)
			n, on := r.strikes()
			if n != before+1 || !on {
				t.Fatalf("RTO %d after the first timeout: count %d → %d with %d timeouts of its own, counting %v; want one more per RTO",
					i, before, n, len(r.rtos)-rtos, on)
			}
		}
		if len(r.rtos) != 3 {
			t.Errorf("%d own timeouts in 8.5 RTOs, want 3 (backed off: 0, 2 and 6 RTOs after the first)", len(r.rtos))
		}
		r.port.Promote()
		if _, on := r.strikes(); on {
			t.Errorf("promoted: the tail still counts")
		}
	})
}

// TestClientRetransmitStartsTailCount: a client with bytes outstanding when
// the primary dies resends them one RTO of its own later. The tail, whose
// output nobody acknowledges and whose timer the client's last ACKs restarted
// after the crash, counts that resend and starts the count there, before its
// own first timeout; one RTO on it counts again.
func TestClientRetransmitStartsTailCount(t *testing.T) {
	pushThroughTail(t, 1000, func(r *tailRun) {
		r.client.Write([]byte("hello")) // an RTT sample: the client's RTO leaves its initial value
		r.net.RunFor(20 * time.Millisecond)
		var resent []time.Duration
		r.net.Bus().Subscribe(func(e obs.Event) {
			if e.Node == "client" {
				resent = append(resent, e.Time)
			}
		}, obs.KindRetransmit)
		r.replicas[0].Crash()
		r.client.Write([]byte("more"))
		for deadline := r.net.Now() + 10*time.Second; len(resent) == 0; r.net.RunFor(time.Millisecond) {
			if r.net.Now() > deadline {
				t.Fatal("the client never resent")
			}
		}
		r.net.RunUntil(resent[0] + 5*time.Millisecond) // through the redirector to the tail
		if len(r.rtos) != 0 {
			t.Fatalf("the tail timed out at %v, before the client resent at %v", r.rtos[0], resent[0])
		}
		if n, on := r.strikes(); n != 1 || !on {
			t.Fatalf("after the client's resend: count %d, counting %v; want 1 and true", n, on)
		}
		r.net.RunUntil(resent[0] + r.conn.BaseRTO() + 5*time.Millisecond)
		if n, on := r.strikes(); n != 2+len(r.rtos) || !on {
			t.Errorf("one RTO after the client's resend, %d timeouts of the tail's own in it: count %d, counting %v; want %d and true",
				len(r.rtos), n, on, 2+len(r.rtos))
		}
	})
}

// TestTailCountStops: a deposit, an ACK that advances sndUna and the
// suspicion the count raises each stop the tail-silence rule.
func TestTailCountStops(t *testing.T) {
	t.Run("deposit", func(t *testing.T) {
		pushThroughTail(t, 1000, func(r *tailRun) {
			r.replicas[0].Crash()
			r.toFirstRTO(t)
			rcv, una := r.conn.RcvNxt(), r.conn.SndUna()
			r.client.Write([]byte("more"))
			r.net.RunFor(20 * time.Millisecond)
			if r.conn.RcvNxt() == rcv || r.conn.SndUna() != una {
				t.Fatalf("the tail deposited %d bytes and sndUna moved %d, want 4 and 0",
					r.conn.RcvNxt().Diff(rcv), r.conn.SndUna().Diff(una))
			}
			if n, on := r.strikes(); n != 0 || on {
				t.Errorf("after a deposit: count %d, counting %v; want 0 and false", n, on)
			}
		})
	})
	t.Run("ack", func(t *testing.T) {
		// The predecessor lives but hears nothing from the tail until the
		// channel heals; then the tail's next retransmission opens its send
		// gate, and the client's ACK of what it sends reaches the tail.
		pushThroughTail(t, 1000, func(r *tailRun) {
			mgr := r.replicas[1].FTManager()
			mgr.SetChainLoss(1)
			r.toFirstRTO(t)
			mgr.SetChainLoss(0)
			rcv, una := r.conn.RcvNxt(), r.conn.SndUna()
			for deadline := r.net.Now() + 10*time.Second; r.conn.SndUna() == una; r.net.RunFor(time.Millisecond) {
				if r.net.Now() > deadline {
					t.Fatal("the tail's output was never acknowledged")
				}
			}
			if r.conn.RcvNxt() != rcv {
				t.Fatalf("the tail deposited %d bytes: want the ACK alone", r.conn.RcvNxt().Diff(rcv))
			}
			if n, on := r.strikes(); n != 0 || on {
				t.Errorf("after an ACK that advanced sndUna: count %d, counting %v; want 0 and false", n, on)
			}
		})
	})
	t.Run("suspicion", func(t *testing.T) {
		pushThroughTail(t, 3, func(r *tailRun) {
			var suspected []time.Duration
			r.replicas[1].FTManager().OnSuspect(suspectFunc(func(core.ServiceID) { suspected = append(suspected, r.net.Now()) }))
			r.replicas[0].Crash()
			r.toFirstRTO(t)
			base := r.conn.BaseRTO()
			r.net.RunUntil(r.rtos[0] + 2*base + base/2)
			if len(suspected) != 1 || suspected[0] != r.rtos[0]+2*base {
				t.Fatalf("suspicions at %v; want one, 2 RTOs after the first timeout at %v", suspected, r.rtos[0])
			}
			if n, on := r.strikes(); n != 0 || on {
				t.Errorf("after the suspicion: count %d, counting %v; want 0 and false", n, on)
			}
		})
	})
}

// suspectFunc adapts a test's closure to core.Suspecter.
type suspectFunc func(svc core.ServiceID)

func (f suspectFunc) Suspect(svc core.ServiceID) { f(svc) }
