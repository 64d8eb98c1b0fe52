package tcp

import (
	"reflect"
	"testing"
	"time"

	"hydranet/internal/ipv4"
)

// sendGate is a ConnHooks with a settable send gate and nothing else.
type sendGate struct {
	closedGate
	limit Seq
}

func (g *sendGate) DepositLimit() (Seq, bool) { return 0, false }
func (g *sendGate) SendLimit() (Seq, bool)    { return g.limit, true }

// wireSeg is a segment that occupies sequence space, as the trace saw it.
type wireSeg struct {
	Len int
	FIN bool
}

// traceSends records every data or FIN segment the client stack sends from
// now on, and the sequence number of every FIN.
func traceSends(e *env) (sent *[]wireSeg, finSeqs map[Seq]bool) {
	sent, finSeqs = new([]wireSeg), map[Seq]bool{}
	e.client.SetTrace(func(dir string, _, _ Endpoint, seg *Segment) {
		fin := seg.Flags.Has(FlagFIN)
		if dir != "out" || (len(seg.Payload) == 0 && !fin) {
			return
		}
		*sent = append(*sent, wireSeg{len(seg.Payload), fin})
		if fin {
			finSeqs[seg.Seq.Add(len(seg.Payload))] = true
		}
	})
	return sent, finSeqs
}

// deliverToClient hands seg to the client stack as if it had crossed the link
// from the server.
func (e *env) deliverToClient(seg *Segment) {
	b := seg.Marshal(e.serverAddr, e.clientAddr)
	e.client.DeliverIP(&ipv4.Packet{
		Header: ipv4.Header{TTL: 4, Proto: ipv4.ProtoTCP, Src: e.serverAddr, Dst: e.clientAddr,
			TotalLen: ipv4.HeaderLen + len(b)},
		Payload: b,
	})
}

// peerSends delivers to cli an in-order segment with no payload, as srv would
// send it.
func peerSends(e *env, cli, srv *Conn, flags Flags, ack Seq) {
	e.deliverToClient(&Segment{SrcPort: srv.Local().Port, DstPort: cli.Local().Port,
		Flags: flags, Seq: cli.RcvNxt(), Ack: ack, Window: 32768})
}

// TestSendDecision has one row per reason output may or may not put the next
// segment on the wire, in 4.4BSD tcp_output order. Every write of a row
// happens at one instant on an established connection whose peer delays its
// ACKs by 200 ms, so whatever the first write sent is still unacknowledged
// when the next is judged; the wire is read 50 ms later.
func TestSendDecision(t *testing.T) {
	write := func(n int) func(*env, *Conn, *sendGate) {
		return func(_ *env, c *Conn, _ *sendGate) {
			if got := c.Write(pattern(n)); got != n {
				panic("short write")
			}
		}
	}
	closeConn := func(_ *env, c *Conn, _ *sendGate) { c.Close() }
	noDelay := func(on bool) func(*env, *Conn, *sendGate) {
		return func(_ *env, c *Conn, _ *sendGate) { c.SetNoDelay(on) }
	}
	const mss = 1460
	rows := []struct {
		name  string
		steps []func(*env, *Conn, *sendGate)
		want  []wireSeg
	}{
		{name: "full segment, data unacked",
			steps: []func(*env, *Conn, *sendGate){write(100), write(mss)},
			want:  []wireSeg{{100, false}, {mss, false}}},
		{name: "short segment, connection idle",
			steps: []func(*env, *Conn, *sendGate){write(100)},
			want:  []wireSeg{{100, false}}},
		{name: "short segment, data unacked, noDelay",
			steps: []func(*env, *Conn, *sendGate){noDelay(true), write(100), write(50)},
			want:  []wireSeg{{100, false}, {50, false}}},
		{name: "short tail before a queued FIN, data unacked: leaves with the FIN",
			steps: []func(*env, *Conn, *sendGate){write(100), write(50), closeConn},
			want:  []wireSeg{{100, false}, {50, true}}},
		{name: "same, send gate covers the tail but not the FIN: tail now, FIN when allowed",
			steps: []func(*env, *Conn, *sendGate){
				func(_ *env, c *Conn, g *sendGate) {
					g.limit = c.SndNxt().Add(150)
					c.hooks = g
				},
				write(100), write(50), closeConn,
				func(_ *env, c *Conn, g *sendGate) {
					g.limit = g.limit.Add(1)
					c.Poke()
				}},
			want: []wireSeg{{100, false}, {50, false}, {0, true}}},
		{name: "short segment, data unacked, more may follow: held (Nagle)",
			steps: []func(*env, *Conn, *sendGate){write(100), write(50)},
			want:  []wireSeg{{100, false}}},
		// Deliberate divergence: tcp_output also sends when snd_nxt < snd_max,
		// so BSD would put the second write back on the wire here. Not adopted
		// (EXPERIMENTS.md, Known divergences).
		{name: "short retransmitted segment behind unacked data: held",
			steps: []func(*env, *Conn, *sendGate){
				func(e *env, c *Conn, _ *sendGate) {
					e.link.SetLoss(1)
					c.SetSegmentPerWrite(true) // the two writes stay two segments when resent
				},
				noDelay(true), write(100), write(50), noDelay(false),
				func(e *env, c *Conn, _ *sendGate) {
					e.sched.RunUntil(e.sched.Now() + c.RTO() + 10*time.Millisecond)
				}},
			want: []wireSeg{{100, false}, {50, false}, {100, false}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e, cli, _ := establishedPair(t, Config{DelayedAckTimeout: 200 * time.Millisecond})
			sent, _ := traceSends(e)
			gate := &sendGate{}
			for _, step := range row.steps {
				step(e, cli, gate)
			}
			e.sched.RunUntil(e.sched.Now() + 50*time.Millisecond)
			if !reflect.DeepEqual(*sent, row.want) {
				t.Errorf("sent %+v, want %+v", *sent, row.want)
			}
		})
	}
}

// TestGoBackNAcrossSentFIN: three full segments, a short tail and the FIN are
// outstanding and nothing comes back; the retransmission timer pulls sndNxt
// back to sndUna and resends the first segment (a promotion's ForceRetransmit
// resends them all); then one cumulative ACK covers everything, FIN included.
// The FIN is acknowledged — the go-back-N used to forget it, leaving sndNxt
// past it with finSent false and the connection open for good.
func TestGoBackNAcrossSentFIN(t *testing.T) {
	const payload = 3*1460 + 462
	starts := []struct {
		name  string
		setup func(e *env, cli, srv *Conn) // before the client's write and close
		after func(e *env, cli, srv *Conn) // after them, nothing acknowledged
		state State                        // with the FIN outstanding
		want  State                        // once it is acknowledged
	}{
		{name: "FIN-WAIT-1", state: StateFinWait1, want: StateFinWait2},
		{name: "CLOSING", state: StateClosing, want: StateTimeWait,
			after: func(e *env, cli, srv *Conn) { peerSends(e, cli, srv, FlagFIN|FlagACK, cli.SndUna()) }},
		{name: "LAST-ACK", state: StateLastAck, want: StateClosed,
			setup: func(e *env, cli, srv *Conn) {
				srv.Close()
				e.sched.RunUntil(e.sched.Now() + 100*time.Millisecond)
			}},
	}
	flight := []wireSeg{{1460, false}, {1460, false}, {1460, false}, {462, true}}
	pullBacks := []struct {
		name   string
		do     func(e *env, cli *Conn)
		resent []wireSeg // a timeout collapses cwnd to one segment, a promotion does not
	}{
		{"RTO", func(e *env, cli *Conn) { e.sched.RunUntil(e.sched.Now() + cli.RTO() + 10*time.Millisecond) }, flight[:1]},
		{"ForceRetransmit", func(e *env, cli *Conn) { cli.ForceRetransmit() }, flight},
	}
	for _, start := range starts {
		for _, pull := range pullBacks {
			t.Run(start.name+"/"+pull.name, func(t *testing.T) {
				e, cli, srv := establishedPair(t, Config{})
				// Warm-up: two acknowledged segments open cwnd from two
				// segments to four, enough for the whole flight.
				cli.Write(pattern(2 * 1460))
				e.sched.RunUntil(e.sched.Now() + 100*time.Millisecond)
				srv.Read(make([]byte, 2*1460))
				if cli.CongestionWindow() < payload {
					t.Fatalf("setup: cwnd %d after the warm-up, want at least %d", cli.CongestionWindow(), payload)
				}
				if start.setup != nil {
					start.setup(e, cli, srv)
				}
				sent, finSeqs := traceSends(e)
				e.link.SetLoss(1)
				cli.Write(pattern(payload))
				cli.Close()
				if start.after != nil {
					start.after(e, cli, srv)
				}
				finEnd := cli.sndMax
				if !reflect.DeepEqual(*sent, flight) {
					t.Fatalf("setup: sent %+v, want %+v", *sent, flight)
				}
				if cli.State() != start.state || cli.SndNxt() != finEnd || cli.SndUna().Add(payload+1) != finEnd {
					t.Fatalf("setup: state %v, sndUna %d, sndNxt %d, sndMax %d", cli.State(), cli.SndUna(), cli.SndNxt(), finEnd)
				}

				pull.do(e, cli)
				if got := (*sent)[len(flight):]; !reflect.DeepEqual(got, pull.resent) {
					t.Fatalf("after the pull-back: resent %+v, want %+v", got, pull.resent)
				}
				if cli.State() != start.state {
					t.Fatalf("state %v after the pull-back, want %v still", cli.State(), start.state)
				}

				peerSends(e, cli, srv, FlagACK, finEnd)
				if cli.State() != start.want {
					t.Errorf("state %v after the cumulative ACK of the FIN, want %v", cli.State(), start.want)
				}
				if cli.SndUna() != finEnd || cli.SndNxt().GT(cli.sndMax) || cli.sndMax != finEnd {
					t.Errorf("sndUna %d, sndNxt %d, sndMax %d, want all at %d", cli.SndUna(), cli.SndNxt(), cli.sndMax, finEnd)
				}
				e.sched.RunUntil(e.sched.Now() + 10*time.Second)
				if extra := (*sent)[len(flight)+len(pull.resent):]; len(extra) != 0 || cli.rtx.Armed() {
					t.Errorf("after the ACK: sent %+v, retransmission timer armed: %v; want silence", extra, cli.rtx.Armed())
				}
				if len(finSeqs) != 1 || !finSeqs[finEnd.Add(-1)] {
					t.Errorf("FIN sequence numbers used: %v, want only %d", finSeqs, finEnd.Add(-1))
				}
			})
		}
	}
}
