package tcp

import (
	"time"

	"hydranet/internal/sim"
)

// SetKeepAlive enables keepalive probing: after idle of inactivity, a probe
// segment (sendProbe) is sent every interval; after probes unanswered
// probes the connection is terminated with ErrTimeout.
//
// In HydraNet-FT deployments, client-side keepalive gives idle connections
// a failure-detection path: the probes flow through the redirector to the
// replicas, and a dead primary turns them into the repeated retransmissions
// the failure estimator counts.
func (c *Conn) SetKeepAlive(idle, interval time.Duration, probes int) {
	if c.keepalive == nil {
		c.keepalive = sim.NewTimer(c.stack.sched, c.onKeepAlive)
	}
	c.keepaliveIdle = idle
	c.keepaliveInterval = interval
	c.keepaliveProbes = probes
	c.lastActivity = c.stack.sched.Now()
	c.keepalive.Reset(idle)
}

// noteActivity records segment arrival for keepalive idleness tracking.
func (c *Conn) noteActivity() {
	c.lastActivity = c.stack.sched.Now()
	c.probesSent = 0
	if c.keepaliveIdle > 0 && c.keepalive != nil && c.state == StateEstablished {
		c.keepalive.Reset(c.keepaliveIdle)
	}
}

func (c *Conn) onKeepAlive() {
	if c.terminated || c.keepaliveIdle == 0 {
		return
	}
	switch c.state {
	case StateEstablished, StateCloseWait:
	default:
		return
	}
	if c.probesSent >= c.keepaliveProbes {
		c.terminate(ErrTimeout)
		return
	}
	c.probesSent++
	// The peer's answer counts as activity and resets the cycle.
	c.sendProbe()
	c.keepalive.Reset(c.keepaliveInterval)
}

// ProbeAck asks the peer for a fresh acknowledgment with one probe segment.
// An ft-TCP primary uses it when its send gate waits on a client ACK that its
// successor's multicast copy may have lost: the client, with nothing
// outstanding, would never send another.
func (c *Conn) ProbeAck() {
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateFinWait2, StateClosing, StateLastAck:
		c.sendProbe()
	}
}

// sendProbe sends a pure ACK with an already-acknowledged sequence number
// (sndUna−1): the classic garbage-byte probe without the garbage. The peer
// finds it outside its window and answers with an ACK, which our processing
// treats as a plain ACK.
func (c *Conn) sendProbe() {
	c.sendSegment(Segment{
		Flags: FlagACK, Seq: c.sndUna.Add(-1), Ack: c.rcv.rcvNxt, Window: c.windowField(),
	})
}
