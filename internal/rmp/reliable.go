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
	free    *relPending // records of settled datagrams, ready for reuse
	peers   map[ipv4.Addr]*peer
	onData  func(from udp.Endpoint, payload []byte)
	ack     [relHeaderLen]byte // the acknowledgment being sent

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

// relPending is one datagram awaiting its acknowledgment. Records are
// recycled through the endpoint's free list once settled; each keeps its
// datagram buffer and its timer, whose handler it is, for the next message.
type relPending struct {
	r        *Reliable
	timer    sim.Timer
	dst      udp.Endpoint
	peer     *peer
	frame    []byte                      // header and payload; reused by the record's next datagram
	frame0   [relHeaderLen + msgLen]byte // frame's backing for all but MIRROR
	seq      uint32
	tries    int
	sentAt   time.Duration // first transmission, for the RTT sample
	onResult func(delivered bool)
	next     *relPending // free-list link
}

// OnTimer makes a record its timer's handler: the attempt timed out.
func (p *relPending) OnTimer() { p.r.retry(p) }

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

// Send transmits m to dst with retries, encoded straight into the buffer of
// the datagram's record; the caller keeps m. onResult, if non-nil, reports
// whether the peer acknowledged within the retry budget.
func (r *Reliable) Send(dst udp.Endpoint, m *Message, onResult func(delivered bool)) {
	p := r.free
	if p != nil {
		r.free, p.next = p.next, nil
	} else {
		p = &relPending{r: r}
		p.frame = p.frame0[:0]
		p.timer.InitHandler(r.sched, p)
	}
	r.nextSeq++
	p.seq = r.nextSeq
	p.dst, p.peer, p.tries, p.sentAt, p.onResult = dst, r.peer(dst.Addr), 0, r.sched.Now(), onResult
	p.frame = append(p.frame[:0], relData, 0, 0, 0, 0)
	putU32(p.frame[1:5], p.seq)
	p.frame = m.AppendTo(p.frame)
	r.pending[p.seq] = p
	r.sent++
	r.transmit(p)
}

// settle takes a datagram's record out of the pending set and puts it on the
// free list, returning the callback that is still to learn the verdict.
func (r *Reliable) settle(p *relPending) (onResult func(delivered bool)) {
	p.timer.Stop()
	delete(r.pending, p.seq)
	onResult = p.onResult
	p.peer, p.onResult = nil, nil
	p.next, r.free = r.free, p
	return onResult
}

// transmit sends p once more. Each attempt waits the peer's RTO, doubled per
// earlier attempt (RFC 6298 §5.5).
func (r *Reliable) transmit(p *relPending) {
	p.tries++
	// A missing route is equivalent to loss; retries cover it.
	_ = r.udpStack.SendTo(r.localAddr, r.port, p.dst, p.frame) //nolint:errcheck
	p.timer.Reset(min(p.peer.rto.Current()<<(p.tries-1), relMaxRTO))
}

func (r *Reliable) retry(p *relPending) {
	if p.tries < relAttempts {
		r.transmit(p)
		return
	}
	r.failed++
	if onResult := r.settle(p); onResult != nil {
		onResult(false)
	}
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
		r.acked++
		if p.tries == 1 {
			// Karn: an acknowledgment of a retransmitted datagram may
			// answer any of its copies, so only first tries are timed.
			p.peer.rto.Sample(r.sched.Now() - p.sentAt)
		}
		if onResult := r.settle(p); onResult != nil {
			onResult(true)
		}
	case relData:
		// Always (re-)acknowledge, then deduplicate.
		r.ack[0] = relAck
		putU32(r.ack[1:5], seq)
		_ = r.udpStack.SendTo(local, r.port, from, r.ack[:]) //nolint:errcheck
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
