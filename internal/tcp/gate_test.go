package tcp

import (
	"testing"
	"time"
)

// countingGate is a ConnHooks with settable deposit and send gates that
// counts the holds it is told about.
type countingGate struct {
	closedGate
	deposit, send Seq
	holds         int
}

func (g *countingGate) DepositLimit() (Seq, bool) { return g.deposit, true }
func (g *countingGate) SendLimit() (Seq, bool)    { return g.send, true }
func (g *countingGate) OnGateHold()               { g.holds++ }

// traceAcks records the ACK number of every pure ACK the client stack sends
// from now on.
func traceAcks(e *env) *[]Seq {
	acks := new([]Seq)
	e.client.SetTrace(func(dir string, _, _ Endpoint, seg *Segment) {
		if dir == "out" && len(seg.Payload) == 0 && seg.Flags == FlagACK {
			*acks = append(*acks, seg.Ack)
		}
	})
	return acks
}

// TestGatedReceiverAcksWhenTheGateOpens: in-order segments that wait at the
// deposit gate have been received, not lost. The receiver acknowledges none of
// them while the gate holds, then all of them with one ACK when it opens; a
// duplicate ACK there would be the peer's cue to fast-retransmit what the
// receiver already has. A real hole still draws a duplicate ACK at once. Each
// arrival that finds bytes at the gate reports the hold.
func TestGatedReceiverAcksWhenTheGateOpens(t *testing.T) {
	e, cli, srv := establishedPair(t, Config{})
	start := cli.RcvNxt()
	gate := &countingGate{deposit: start, send: cli.SndNxt().Add(1 << 20)}
	cli.hooks = gate
	acks := traceAcks(e)
	srv.SetNoDelay(true)
	for i := 0; i < 3; i++ {
		srv.Write(pattern(100))
	}
	e.sched.RunUntil(e.sched.Now() + 50*time.Millisecond)
	if len(*acks) != 0 || cli.RcvNxt() != start {
		t.Fatalf("gate shut: sent ACKs %v, rcvNxt moved %d; want no ACK and no deposit",
			*acks, cli.RcvNxt().Diff(start))
	}
	if gate.holds != 3 {
		t.Errorf("gate shut: %d holds reported for three held segments, want 3", gate.holds)
	}
	if !cli.HoldsUnacked() {
		t.Errorf("gate shut: HoldsUnacked = false with 300 bytes at the gate")
	}

	gate.deposit = start.Add(300)
	cli.Poke()
	e.sched.RunUntil(e.sched.Now() + 50*time.Millisecond)
	if len(*acks) != 1 || (*acks)[0] != start.Add(300) {
		t.Fatalf("gate open: sent ACKs %v, want exactly one, for %d", *acks, start.Add(300))
	}
	if cli.HoldsUnacked() {
		t.Errorf("gate open: HoldsUnacked = true with every byte deposited")
	}

	holds := gate.holds
	e.deliverToClient(&Segment{SrcPort: srv.Local().Port, DstPort: cli.Local().Port,
		Flags: FlagACK, Seq: start.Add(400), Ack: cli.SndNxt(), Window: 32768, Payload: pattern(100)})
	if len(*acks) != 2 || (*acks)[1] != start.Add(300) {
		t.Fatalf("a hole below a segment: sent ACKs %v, want a duplicate ACK for %d at once", *acks, start.Add(300))
	}
	if gate.holds != holds {
		t.Errorf("a hole reported as a gate hold")
	}
}

// TestSendGateReportsHold: data the window would send but the send gate
// withholds is a hold; a gate wide enough for everything is not, and neither
// is data a closed peer window holds at the gate's edge.
func TestSendGateReportsHold(t *testing.T) {
	e, cli, srv := establishedPair(t, Config{})
	gate := &countingGate{deposit: cli.RcvNxt().Add(1 << 20), send: cli.SndNxt().Add(100)}
	cli.hooks = gate
	cli.SetNoDelay(true)
	cli.Write(pattern(300))
	if gate.holds != 1 || cli.SndNxt() != gate.send {
		t.Fatalf("gate at 100 of 300 bytes: %d holds, sndNxt %d past the gate; want 1 and 0",
			gate.holds, cli.SndNxt().Diff(gate.send))
	}
	gate.send = gate.send.Add(200)
	cli.Poke()
	if gate.holds != 1 || cli.SndNxt() != gate.send {
		t.Fatalf("gate past the data: %d holds, sndNxt %d short of the gate; want still 1 and 0",
			gate.holds, gate.send.Diff(cli.SndNxt()))
	}

	e.deliverToClient(&Segment{SrcPort: srv.Local().Port, DstPort: cli.Local().Port,
		Flags: FlagACK, Seq: cli.RcvNxt(), Ack: cli.SndNxt(), Window: 0})
	cli.Write(pattern(100))
	if gate.holds != 1 {
		t.Fatalf("zero peer window at the gate: %d holds, want still 1", gate.holds)
	}
}
