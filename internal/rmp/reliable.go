package rmp

import (
	"encoding/binary"
	"slices"
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
// A daemon has a few datagrams in flight and a few peers, so both tables are
// scanned. The first relInline entries of each live in the endpoint, and an
// owner can lend it more records (lend).
type Reliable struct {
	sched     *sim.Scheduler
	udpStack  *udp.Stack
	localAddr ipv4.Addr
	port      uint16

	nextSeq uint32
	recs    []*relPending // every record made or lent; a settled one (seq 0) is reused
	recs0   [2 * relInline]*relPending
	rec0    [relInline]relPending
	peers   []peer
	peers0  [relInline]peer
	onData  receiver
	ack     [relHeaderLen]byte // the acknowledgment being sent
}

// A receiver (the owning daemon) is handed each distinct datagram delivered; a
// resultHandler (a probe's member record) learns if one was acknowledged.
type receiver interface{ onMessage(udp.Endpoint, []byte) }
type resultHandler interface{ onResult(delivered bool) }

// peer is what the endpoint knows of one remote daemon: the RTO of the
// datagrams it sends there, and the sequence numbers it recently received
// from there.
type peer struct {
	addr ipv4.Addr
	rto  inet.RTO
	seen [relDedupWindow]uint32 // ring; sequence numbers start at 1, so 0 is empty
	next int                    // the ring slot the next new sequence number takes
}

// relPending is one datagram awaiting its acknowledgment. A settled record
// keeps its datagram buffer and its timer, whose handler it is, for a later
// message.
type relPending struct {
	r        *Reliable
	timer    sim.Timer
	dst      udp.Endpoint
	peer     int                         // index in r.peers
	frame    []byte                      // header and payload; reused by the record's next datagram
	frame0   [relHeaderLen + msgLen]byte // frame's backing for all but MIRROR
	seq      uint32                      // 0 once settled
	tries    int
	sentAt   time.Duration // first transmission, for the RTT sample
	onResult resultHandler
}

// OnTimer makes a record its timer's handler: the attempt timed out.
func (p *relPending) OnTimer() { p.r.retry(p) }

const (
	relData uint8 = 1
	relAck  uint8 = 2

	relHeaderLen   = 5
	relDedupWindow = 64
	relInline      = 3

	// relAttempts transmissions are made before a datagram is given up.
	relAttempts = 4
	// relMaxRTO is an unsampled peer's RTO and the ceiling of every
	// attempt's timeout, so no verdict takes longer than relAttempts ×
	// relMaxRTO = 1 s.
	relMaxRTO = 250 * time.Millisecond
	// relGranularity is RFC 6298's G: the variance term never adds less.
	relGranularity = time.Millisecond
)

// Init binds a reliable-UDP endpoint on (localAddr, port), which must not be
// copied afterwards.
func (r *Reliable) Init(udpStack *udp.Stack, sched *sim.Scheduler, localAddr ipv4.Addr, port uint16, onData receiver) error {
	r.sched, r.udpStack, r.localAddr, r.port, r.onData = sched, udpStack, localAddr, port, onData
	r.recs, r.peers = r.recs0[:0], r.peers0[:0]
	r.lend(r.rec0[:])
	return udpStack.Bind(localAddr, port, (*relReceiver)(r))
}

// lend adds records, which must not move afterwards, to those the endpoint
// sends from.
func (r *Reliable) lend(recs []relPending) {
	for i := range recs {
		p := &recs[i]
		p.r, p.frame = r, p.frame0[:0]
		p.timer.InitHandler(r.sched, p)
		r.recs = append(r.recs, p)
	}
}

// peer returns the index of addr's record, creating it on first contact.
func (r *Reliable) peer(addr ipv4.Addr) int {
	for i := range r.peers {
		if r.peers[i].addr == addr {
			return i
		}
	}
	r.peers = append(r.peers, peer{addr: addr, rto: inet.NewRTO(relMaxRTO, 0, relMaxRTO, relGranularity)})
	return len(r.peers) - 1
}

// record returns a settled datagram record, making one if all are in flight.
func (r *Reliable) record() *relPending {
	for _, p := range r.recs {
		if p.seq == 0 {
			return p
		}
	}
	recs := make([]relPending, 1)
	r.lend(recs)
	return &recs[0]
}

// Send transmits m to dst with retries, encoded straight into the buffer of
// the datagram's record; the caller keeps m. onResult, if non-nil, learns
// whether the peer acknowledged within the retry budget.
func (r *Reliable) Send(dst udp.Endpoint, m *Message, onResult resultHandler) {
	p := r.record()
	r.nextSeq++
	p.seq = r.nextSeq
	p.dst, p.peer, p.tries, p.sentAt, p.onResult = dst, r.peer(dst.Addr), 0, r.sched.Now(), onResult
	p.frame = append(p.frame[:0], relData, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(p.frame[1:5], p.seq)
	p.frame = m.AppendTo(p.frame)
	r.transmit(p)
}

// settle frees a datagram's record, returning the handler that is still to
// learn the verdict.
func (r *Reliable) settle(p *relPending) (onResult resultHandler) {
	p.timer.Stop()
	onResult = p.onResult
	p.seq, p.onResult = 0, nil
	return onResult
}

// transmit sends p once more. Each attempt waits the peer's RTO, doubled per
// earlier attempt (RFC 6298 §5.5).
func (r *Reliable) transmit(p *relPending) {
	p.tries++
	// A missing route is equivalent to loss; retries cover it.
	_ = r.udpStack.SendTo(r.localAddr, r.port, p.dst, p.frame) //nolint:errcheck
	p.timer.Reset(min(r.peers[p.peer].rto.Current()<<(p.tries-1), relMaxRTO))
}

func (r *Reliable) retry(p *relPending) {
	if p.tries < relAttempts {
		r.transmit(p)
		return
	}
	if onResult := r.settle(p); onResult != nil {
		onResult.onResult(false)
	}
}

// A *Reliable converted to relReceiver receives the endpoint's datagrams.
type relReceiver Reliable

func (rr *relReceiver) Receive(from udp.Endpoint, local ipv4.Addr, b []byte) {
	r := (*Reliable)(rr)
	if len(b) < relHeaderLen {
		return
	}
	seq := binary.BigEndian.Uint32(b[1:5])
	switch b[0] {
	case relAck:
		i := slices.IndexFunc(r.recs, func(p *relPending) bool { return p.seq == seq })
		if seq == 0 || i < 0 {
			return
		}
		p := r.recs[i]
		if p.tries == 1 {
			// Karn: an acknowledgment of a retransmitted datagram may
			// answer any of its copies, so only first tries are timed.
			r.peers[p.peer].rto.Sample(r.sched.Now() - p.sentAt)
		}
		if onResult := r.settle(p); onResult != nil {
			onResult.onResult(true)
		}
	case relData:
		// Always (re-)acknowledge, then deduplicate.
		r.ack[0] = relAck
		binary.BigEndian.PutUint32(r.ack[1:5], seq)
		_ = r.udpStack.SendTo(local, r.port, from, r.ack[:]) //nolint:errcheck
		if r.peers[r.peer(from.Addr)].isDup(seq) {
			return
		}
		if r.onData != nil {
			r.onData.onMessage(from, b[relHeaderLen:])
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
