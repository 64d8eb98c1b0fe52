package tcp

import (
	"time"

	"hydranet/internal/obs"
)

// input processes one received segment. It is the RFC 793 segment-arrival
// event, simplified: no urgent data, no simultaneous open, no window
// scaling.
func (c *Conn) input(seg *Segment) {
	if c.terminated {
		return
	}
	c.stats.SegsReceived++
	c.noteActivity()
	switch c.state {
	case StateSynSent:
		c.inputSynSent(seg)
	case StateSynRcvd:
		c.inputSynRcvd(seg)
	case StateTimeWait:
		// A retransmitted FIN restarts the 2MSL wait and is re-acked.
		if seg.Flags.Has(FlagFIN) {
			c.notePeerRetransmit()
			c.sendAck()
			c.startTimeWait()
		}
	default:
		c.inputEstablished(seg)
	}
	// The segment payload aliases a fabric frame that is recycled as soon
	// as this delivery event returns; any range still pending must become a
	// private copy now.
	c.rcv.privatize()
}

func (c *Conn) inputSynSent(seg *Segment) {
	if seg.Flags.Has(FlagRST) {
		if seg.Flags.Has(FlagACK) && seg.Ack == c.iss.Add(1) {
			c.terminate(ErrRefused)
		}
		return
	}
	if !seg.Flags.Has(FlagSYN|FlagACK) || seg.Ack != c.iss.Add(1) {
		return
	}
	c.sndUna = seg.Ack
	c.irs = seg.Seq
	c.rcv.setNext(seg.Seq.Add(1))
	if seg.MSS != 0 && int(seg.MSS) < c.mss {
		c.mss = int(seg.MSS)
	}
	c.cwnd = initialCwnd * c.mss
	c.sndWnd = int(seg.Window)
	c.state = StateEstablished
	c.rtxCount = 0
	c.rtx.Stop()
	c.sendAck()
	c.writable(c.onConnected)
	c.output()
}

func (c *Conn) inputSynRcvd(seg *Segment) {
	if seg.Flags.Has(FlagRST) {
		c.terminate(ErrReset)
		return
	}
	if seg.Flags.Has(FlagSYN) && seg.Seq == c.irs {
		// The client retransmitted its SYN: our SYN-ACK was lost or is
		// being withheld by the send gate.
		c.notePeerRetransmit()
		c.sendSynAck()
		return
	}
	if !seg.Flags.Has(FlagACK) || seg.Ack != c.iss.Add(1) {
		return
	}
	c.sndUna = seg.Ack
	if c.sndNxt == c.iss {
		// Our SYN-ACK was withheld by the ft-TCP send gate, yet the
		// handshake completed system-wide (another replica's copy reached
		// the client). Account the SYN as sent so the cursors stay
		// coherent.
		c.sndNxt = c.iss.Add(1)
		if c.sndNxt.GT(c.sndMax) {
			c.sndMax = c.sndNxt
		}
	}
	c.sndWnd = int(seg.Window)
	c.state = StateEstablished
	c.rtxCount = 0
	c.rtx.Stop()
	if c.acceptFn != nil {
		fn := c.acceptFn
		c.acceptFn = nil
		fn(c)
	}
	c.writable(c.onConnected)
	// The handshake ACK may carry data or a FIN; fall through.
	if len(seg.Payload) > 0 || seg.Flags.Has(FlagFIN) {
		c.inputEstablished(seg)
		return
	}
	c.output()
}

// inputEstablished covers ESTABLISHED and all closing states.
func (c *Conn) inputEstablished(seg *Segment) {
	if seg.Flags.Has(FlagRST) {
		c.terminate(ErrReset)
		return
	}
	if seg.Flags.Has(FlagSYN) {
		// A SYN inside an established connection: stale or duplicate.
		c.notePeerRetransmit()
		c.sendAck()
		return
	}
	if seg.Flags.Has(FlagACK) {
		c.processAck(seg)
		if c.terminated {
			return
		}
	}
	if len(seg.Payload) == 0 && !seg.Flags.Has(FlagFIN) && seg.Seq.LT(c.rcv.rcvNxt) {
		// Zero-length segment below rcvNxt: a keepalive probe (or stale
		// duplicate). RFC 793 acceptability demands an ACK in reply. It
		// also feeds the failure estimator: on a HydraNet-FT backup, a
		// stream of unanswered client probes is the only failure signal an
		// idle connection produces (the redirector's liveness probe
		// filters the healthy-idle case).
		c.notePeerRetransmit()
		c.sendAck()
		return
	}
	if len(seg.Payload) > 0 {
		c.processData(seg)
	}
	if seg.Flags.Has(FlagFIN) {
		finSeq := seg.Seq.Add(len(seg.Payload))
		switch {
		case finSeq.LT(c.rcv.rcvNxt):
			// Retransmitted FIN already consumed.
			c.notePeerRetransmit()
			c.sendAck()
		case c.rcv.finSet && finSeq == c.rcv.finSeq && len(seg.Payload) == 0:
			// Retransmitted FIN we hold but may not consume yet: the deposit
			// gate is withholding its ACK. A peer in LAST-ACK sends nothing
			// else, so this is all the failure estimator will hear. (A FIN
			// with payload was counted by processData already.)
			c.notePeerRetransmit()
		default:
			c.rcv.noteFIN(finSeq)
		}
	}
	c.depositAndAck()
	c.output()
}

func (c *Conn) processAck(seg *Segment) {
	ack := seg.Ack
	switch {
	case ack.GT(c.sndMax):
		// ACK for data we have never sent; re-ack and ignore.
		c.sendAck()
		return
	case ack.GT(c.sndUna):
		acked := ack.Diff(c.sndUna)
		c.sndUna = ack
		if c.sndNxt.LT(ack) {
			// After go-back-N the peer may acknowledge data beyond the
			// pulled-back cursor (it had the earlier copies); skip it.
			c.sndNxt = ack
		}
		c.sndBuf.ackTo(ack)
		c.rtxCount = 0
		// RTT sampling (Karn-guarded: rttPending is cleared on timeout).
		if c.rttPending && ack.GEQ(c.rttSeq) {
			d := c.stack.sched.Now() - c.rttAt
			c.rto.Sample(d)
			c.stack.rttHist.Observe(float64(d) / float64(time.Millisecond))
			c.rttPending = false
		}
		if c.inFastRecovery {
			if ack.GEQ(c.recover) {
				c.inFastRecovery = false
				c.cwnd = c.ssthresh
				c.dupAcks = 0
			} else {
				// Partial ACK: retransmit the next hole (NewReno).
				c.retransmitOne()
				c.cwnd = maxInt(c.cwnd-acked+c.mss, c.mss)
			}
		} else {
			c.dupAcks = 0
			if c.cwnd < c.ssthresh {
				c.cwnd += c.mss // slow start
			} else {
				c.cwnd += maxInt(c.mss*c.mss/c.cwnd, 1) // congestion avoidance
			}
		}
		c.sndWnd = int(seg.Window)
		if c.sndWnd > 0 {
			c.persist.Stop()
			c.persistShift = 0
		}
		if c.finSent && ack == c.sndBuf.endSeq().Add(1) {
			// The FIN sits one past the data. After a go-back-N sndNxt may
			// have been below it a moment ago; the ACK covers it all the same.
			c.finAcked()
		}
		c.armRTX()
		if b := c.stack.bus; b.Enabled(obs.KindAckProgress) {
			// Seq is the new cumulative ACK point. On the client side of an
			// ft-TCP connection this is the moment the primary's ACK — the
			// end of the multicast→deposit→ack chain — became visible.
			b.Publish(obs.Event{
				Kind: obs.KindAckProgress, Node: c.stack.nodeName(),
				Service: c.local, Conn: c.remote,
				Seq: uint64(uint32(ack)), Size: acked,
			})
		}
		if c.hooks != nil {
			c.hooks.OnAckProgress()
		}
		if c.sndBuf.free() > 0 {
			c.writable(c.onWritable)
		}
	case ack == c.sndUna:
		c.sndWnd = int(seg.Window)
		if c.sndWnd > 0 {
			c.persist.Stop()
			c.persistShift = 0
		}
		outstanding := c.sndNxt != c.sndUna
		if outstanding && len(seg.Payload) == 0 && !seg.Flags.Has(FlagFIN|FlagSYN) {
			c.dupAcks++
			c.stats.DupAcksSeen++
			switch {
			case c.dupAcks == 3 && !c.inFastRecovery:
				flight := c.sndNxt.Diff(c.sndUna)
				c.ssthresh = maxInt(flight/2, 2*c.mss)
				c.recover = c.sndNxt
				c.inFastRecovery = true
				c.stats.FastRetransmits++
				if b := c.stack.bus; b.Enabled(obs.KindFastRetransmit) {
					b.Publish(obs.Event{
						Kind: obs.KindFastRetransmit, Node: c.stack.nodeName(),
						Conn: c.remote, Seq: uint64(c.sndUna),
					})
				}
				c.retransmitOne()
				c.cwnd = c.ssthresh + 3*c.mss
			case c.inFastRecovery:
				c.cwnd += c.mss // window inflation per extra dup ACK
				c.output()
			}
		}
	default:
		// Old ACK below sndUna: the peer retransmitted an acknowledgment.
		// Ignore (window updates from old ACKs are unsafe).
	}
}

func (c *Conn) processData(seg *Segment) {
	dataEnd := seg.Seq.Add(len(seg.Payload))
	if dataEnd.LEQ(c.rcv.rcvNxt) {
		// Entire segment below rcvNxt: the peer retransmitted because our
		// ACK is missing — lost, or withheld by the deposit gate. This is
		// the signal the HydraNet-FT failure estimator counts.
		c.notePeerRetransmit()
		c.sendAck()
		return
	}
	if seg.Seq.GEQ(c.rcv.rcvNxt.Add(c.rcv.window())) {
		// Entirely beyond our advertised window — typically a zero-window
		// probe. Drop it and re-advertise.
		c.sendAck()
		return
	}
	// Out of order means a hole below the segment. Bytes the deposit gate
	// holds are received, not missing: a gated replica acknowledges them when
	// the gate opens (depositAndAck), not with a duplicate ACK now.
	outOfOrder := seg.Seq.GT(c.rcv.contiguousEnd())
	isNew := c.rcv.insert(seg.Seq, seg.Payload)
	if seg.Seq.LT(c.rcv.rcvNxt) || !isNew {
		// Partial overlap below rcvNxt, or data we already hold pending
		// (undeposited because the ft-TCP gate is withholding our ACK):
		// either way the peer is retransmitting.
		c.notePeerRetransmit()
	}
	if outOfOrder {
		// Duplicate ACK to trigger the peer's fast retransmit.
		c.sendAck()
	}
}

// depositAndAck advances the deposit cursor under the ft-TCP gate, consumes
// a pending FIN when it becomes deliverable, and acknowledges progress.
func (c *Conn) depositAndAck() {
	limit, gated := c.depositLimit()
	if !gated {
		limit = c.rcv.contiguousEnd().Add(1) // effectively unbounded
	}
	n := c.rcv.depositUpTo(limit)
	if n > 0 {
		c.stats.BytesReceived += uint64(n)
		if b := c.stack.bus; b.Enabled(obs.KindDeposit) {
			// Seq is the post-deposit cursor: every byte below it has been
			// handed to the application. The monitor checks its continuity
			// and the ft-gate minimum, and its gating behaviour is the
			// inbound-atomicity rule made visible.
			b.Publish(obs.Event{
				Kind: obs.KindDeposit, Node: c.stack.nodeName(),
				Service: c.local, Conn: c.remote,
				Seq: uint64(uint32(c.rcv.rcvNxt)), Size: n,
			})
		}
	}
	finConsumed := false
	if c.rcv.finReady() {
		finOK := true
		if gated {
			finOK = limit.GT(c.rcv.finSeq)
		}
		if finOK {
			c.rcv.consumeFIN()
			c.peerFINSeen = true
			finConsumed = true
			switch c.state {
			case StateEstablished:
				c.state = StateCloseWait
			case StateFinWait1:
				// Our FIN is unacked and theirs arrived: simultaneous close.
				c.state = StateClosing
			case StateFinWait2:
				c.enterTimeWait()
			}
		}
	}
	if n > 0 || finConsumed {
		if c.hooks != nil {
			c.hooks.OnDeposit()
		}
		if finConsumed {
			c.sendAck()
		} else {
			c.scheduleAck()
		}
		if c.onReadable != nil {
			c.onReadable()
		}
	}
	if gated && !c.terminated && (c.rcv.contiguousEnd().GT(limit) || c.rcv.finReady()) {
		// Received bytes, or the FIN behind them, wait at the gate. (The
		// application's read callback may have closed the connection.)
		c.hooks.OnGateHold()
	}
}

// finAcked handles the peer acknowledging our FIN.
func (c *Conn) finAcked() {
	switch c.state {
	case StateFinWait1:
		c.state = StateFinWait2
		// If the peer's FIN was already consumed while we were in
		// FIN-WAIT-1 we'd be in CLOSING instead.
	case StateClosing:
		c.enterTimeWait()
	case StateLastAck:
		c.terminate(nil)
	}
}

func (c *Conn) notePeerRetransmit() {
	c.stats.PeerRetransmits++
	if c.hooks != nil {
		c.hooks.OnPeerRetransmit()
	}
}
