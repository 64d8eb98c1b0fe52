package rmp

import (
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/sim"
	"hydranet/internal/udp"
)

// Reliable is the "form of reliable UDP" the management daemons use for
// message exchanges: sequence-numbered datagrams, positive acknowledgment,
// bounded retransmission timed from each peer's measured round trip, and
// duplicate suppression at the receiver.
type Reliable struct {
	sched     *sim.Scheduler
	udpStack  *udp.Stack
	localAddr ipv4.Addr
	port      uint16

	nextSeq uint32
	pending map[uint32]*relPending
	peers   map[ipv4.Addr]*peer
	onData  func(from udp.Endpoint, payload []byte)

	// Stats
	sent, acked, failed, dupsDropped uint64
}

// peer is what the endpoint knows of one remote daemon: the RTO of the
// datagrams it sends there, and the sequence numbers it recently received
// from there.
type peer struct {
	rto  inet.RTO
	seen [relDedupWindow]uint32 // ring; sequence numbers start at 1, so 0 is empty
	next int                    // the ring slot the next new sequence number takes
}

type relPending struct {
	timer    *sim.Timer
	dst      udp.Endpoint
	peer     *peer
	frame    []byte
	tries    int
	sentAt   time.Duration // first transmission, for the RTT sample
	onResult func(delivered bool)
}

const (
	relData uint8 = 1
	relAck  uint8 = 2

	relHeaderLen   = 5
	relDedupWindow = 64

	// relAttempts transmissions are made before a datagram is given up.
	relAttempts = 4
	// relMaxRTO is an unsampled peer's RTO and the ceiling of every
	// attempt's timeout, so no verdict takes longer than relAttempts ×
	// relMaxRTO = 1 s.
	relMaxRTO = 250 * time.Millisecond
	// relGranularity is RFC 6298's G: the variance term never adds less.
	relGranularity = time.Millisecond
)

// NewReliable binds a reliable-UDP endpoint on (localAddr, port). onData is
// invoked once per distinct delivered datagram.
func NewReliable(udpStack *udp.Stack, sched *sim.Scheduler, localAddr ipv4.Addr, port uint16,
	onData func(from udp.Endpoint, payload []byte)) (*Reliable, error) {
	r := &Reliable{
		sched:     sched,
		udpStack:  udpStack,
		localAddr: localAddr,
		port:      port,
		pending:   make(map[uint32]*relPending),
		peers:     make(map[ipv4.Addr]*peer),
		onData:    onData,
	}
	if err := udpStack.Bind(localAddr, port, r.receive); err != nil {
		return nil, err
	}
	return r, nil
}

// Stats returns datagrams sent, acknowledged, failed (all retries
// exhausted) and duplicates dropped.
func (r *Reliable) Stats() (sent, acked, failed, dups uint64) {
	return r.sent, r.acked, r.failed, r.dupsDropped
}

// peer returns addr's record, creating it on first contact.
func (r *Reliable) peer(addr ipv4.Addr) *peer {
	pe := r.peers[addr]
	if pe == nil {
		pe = &peer{rto: inet.NewRTO(relMaxRTO, 0, relMaxRTO, relGranularity)}
		r.peers[addr] = pe
	}
	return pe
}

// Send transmits payload to dst with retries. onResult, if non-nil, reports
// whether the peer acknowledged within the retry budget.
func (r *Reliable) Send(dst udp.Endpoint, payload []byte, onResult func(delivered bool)) {
	r.nextSeq++
	seq := r.nextSeq
	frame := make([]byte, relHeaderLen+len(payload))
	frame[0] = relData
	putU32(frame[1:5], seq)
	copy(frame[relHeaderLen:], payload)
	p := &relPending{dst: dst, peer: r.peer(dst.Addr), frame: frame, sentAt: r.sched.Now(), onResult: onResult}
	p.timer = sim.NewTimer(r.sched, func() { r.retry(seq) })
	r.pending[seq] = p
	r.sent++
	r.transmit(p)
}

// transmit sends p once more. Each attempt waits the peer's RTO, doubled per
// earlier attempt (RFC 6298 §5.5).
func (r *Reliable) transmit(p *relPending) {
	p.tries++
	// A missing route is equivalent to loss; retries cover it.
	_ = r.udpStack.SendTo(r.localAddr, r.port, p.dst, p.frame) //nolint:errcheck
	p.timer.Reset(min(p.peer.rto.Current()<<(p.tries-1), relMaxRTO))
}

func (r *Reliable) retry(seq uint32) {
	p := r.pending[seq]
	if p == nil {
		return
	}
	if p.tries >= relAttempts {
		delete(r.pending, seq)
		r.failed++
		if p.onResult != nil {
			p.onResult(false)
		}
		return
	}
	r.transmit(p)
}

func (r *Reliable) receive(from udp.Endpoint, local ipv4.Addr, b []byte) {
	if len(b) < relHeaderLen {
		return
	}
	seq := getU32(b[1:5])
	switch b[0] {
	case relAck:
		p := r.pending[seq]
		if p == nil {
			return
		}
		p.timer.Stop()
		delete(r.pending, seq)
		r.acked++
		if p.tries == 1 {
			// Karn: an acknowledgment of a retransmitted datagram may
			// answer any of its copies, so only first tries are timed.
			p.peer.rto.Sample(r.sched.Now() - p.sentAt)
		}
		if p.onResult != nil {
			p.onResult(true)
		}
	case relData:
		// Always (re-)acknowledge, then deduplicate.
		ack := make([]byte, relHeaderLen)
		ack[0] = relAck
		putU32(ack[1:5], seq)
		_ = r.udpStack.SendTo(local, r.port, from, ack) //nolint:errcheck
		if r.peer(from.Addr).isDup(seq) {
			r.dupsDropped++
			return
		}
		if r.onData != nil {
			r.onData(from, b[relHeaderLen:])
		}
	}
}

// isDup reports whether seq is among the last relDedupWindow sequence
// numbers received from the peer, and records it if not.
func (pe *peer) isDup(seq uint32) bool {
	for _, s := range pe.seen {
		if s == seq {
			return true
		}
	}
	pe.seen[pe.next] = seq
	pe.next = (pe.next + 1) % relDedupWindow
	return false
}
