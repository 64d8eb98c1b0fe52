package tcp

import (
	"errors"
	"fmt"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/obs"
	"hydranet/internal/sim"
)

// State is a TCP connection state (RFC 793).
type State int

// Connection states.
const (
	StateClosed State = iota + 1
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = map[State]string{
	StateClosed: "CLOSED", StateListen: "LISTEN", StateSynSent: "SYN-SENT",
	StateSynRcvd: "SYN-RCVD", StateEstablished: "ESTABLISHED",
	StateFinWait1: "FIN-WAIT-1", StateFinWait2: "FIN-WAIT-2",
	StateCloseWait: "CLOSE-WAIT", StateClosing: "CLOSING",
	StateLastAck: "LAST-ACK", StateTimeWait: "TIME-WAIT",
}

func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Endpoint identifies one end of a connection.
type Endpoint = inet.Endpoint

// Errors surfaced through the OnClosed callback.
var (
	ErrReset      = errors.New("tcp: connection reset by peer")
	ErrRefused    = errors.New("tcp: connection refused")
	ErrTimeout    = errors.New("tcp: retransmission limit exceeded")
	ErrClosed     = errors.New("tcp: connection closed")
	ErrListenBusy = errors.New("tcp: address already listening")
)

// ConnHooks are the ft-TCP extension points (paper Section 4). A plain TCP
// endpoint has none. The HydraNet-FT core attaches its per-connection chain
// state to replica-side connections through this interface; every method is
// consulted at the moment its event occurs, so a change of role or chain
// position takes effect without re-installing anything.
type ConnHooks interface {
	// SuppressTransmit is consulted before each segment reaches the wire.
	// Returning true diverts the segment: it is not transmitted, but the
	// connection state advances as if it were. Backup replicas use this to
	// strip segments to their flow-control fields for the acknowledgment
	// channel. seg is the connection's scratch, valid only for the call.
	SuppressTransmit(seg *Segment) bool
	// DepositLimit bounds rcvNxt: bytes at or above the limit stay pending
	// and unacknowledged. ok=false means unlimited. This realizes the
	// paper's rule that server Si deposits byte k only after S(i+1)
	// acknowledged past k.
	DepositLimit() (limit Seq, ok bool)
	// SendLimit bounds sndNxt the same way for the outbound stream.
	SendLimit() (limit Seq, ok bool)
	// OnGateHold fires whenever one of those limits, and nothing else,
	// leaves bytes waiting: received contiguous data or a FIN at or above
	// the deposit limit, or data or a queued FIN at a send limit the window
	// would pass. It fires on every evaluation that finds the hold, so the
	// receiver decides how long a hold may last.
	OnGateHold()
	// OnPeerRetransmit fires when the peer demonstrably retransmitted
	// (data wholly below rcvNxt, or a duplicate SYN). It feeds the
	// low-latency failure estimator.
	OnPeerRetransmit()
	// OnRTO fires when this endpoint's own retransmission timer expires —
	// the server-push-direction analogue of OnPeerRetransmit: a replica
	// retransmitting repeatedly without progress means the flow-control
	// loop is broken somewhere even if the client has nothing to send.
	OnRTO()
	// OnAckProgress fires when an acknowledgment advances sndUna: the
	// outbound loop is healthy, so the failure estimator resets.
	OnAckProgress()
	// OnDeposit fires after rcvNxt advances, so a replica can forward its
	// new flow-control state up the acknowledgment channel.
	OnDeposit()
	// OnClosed fires when the connection terminates for any reason,
	// independent of the application's OnClosed callback.
	OnClosed(err error)
}

// ConnStats counts per-connection protocol events.
type ConnStats struct {
	SegsSent        uint64 `json:"segs_sent"`       // segments passed to the wire (not suppressed)
	SegsSuppressed  uint64 `json:"segs_suppressed"` // segments diverted by SuppressTransmit
	SegsReceived    uint64 `json:"segs_received"`
	BytesSent       uint64 `json:"bytes_sent"`     // payload bytes, first transmission only
	BytesReceived   uint64 `json:"bytes_received"` // payload bytes deposited
	Retransmits     uint64 `json:"retransmits"`    // data segments retransmitted
	RTOEvents       uint64 `json:"rto_events"`     // retransmission timeouts fired
	FastRetransmits uint64 `json:"fast_retransmits"`
	DupAcksSeen     uint64 `json:"dup_acks_seen"`
	PeerRetransmits uint64 `json:"peer_retransmits"` // retransmissions observed from the peer
}

// accumulate folds o into the receiver (stack-level totals).
func (s *ConnStats) accumulate(o ConnStats) {
	s.SegsSent += o.SegsSent
	s.SegsSuppressed += o.SegsSuppressed
	s.SegsReceived += o.SegsReceived
	s.BytesSent += o.BytesSent
	s.BytesReceived += o.BytesReceived
	s.Retransmits += o.Retransmits
	s.RTOEvents += o.RTOEvents
	s.FastRetransmits += o.FastRetransmits
	s.DupAcksSeen += o.DupAcksSeen
	s.PeerRetransmits += o.PeerRetransmits
}

// Conn is one TCP endpoint, one record of its stack's slab or part of one a
// listener's setup function supplies: the bookkeeping of its buffers, the RTO
// estimator, the timers and WriteAll's outbox are embedded by value. A record
// is never reused, so a *Conn kept after OnClosed still names its own closed
// connection.
type Conn struct {
	stack  *Stack
	local  Endpoint
	remote Endpoint
	state  State

	// Send sequence space.
	iss       Seq
	sndUna    Seq
	sndNxt    Seq
	sndMax    Seq // highest sequence ever sent (for Karn under go-back-N)
	sndWnd    int
	sndBuf    sendBuffer
	finQueued bool
	finSent   bool
	mss       int

	// Congestion control (Reno-style).
	cwnd           int
	ssthresh       int
	dupAcks        int
	recover        Seq
	inFastRecovery bool

	// Receive sequence space.
	irs Seq
	rcv receiver

	// Timers and RTT.
	rtx          sim.Timer
	delack       sim.Timer
	persist      sim.Timer
	timeWait     sim.Event // this connection's entry in the stack's TIME-WAIT lane
	rto          inet.RTO
	rttSeq       Seq
	rttAt        time.Duration
	rttPending   bool
	rtxCount     int // consecutive timeouts without progress
	persistShift uint

	noDelay  bool
	hooks    ConnHooks
	stats    ConnStats
	acceptFn func(*Conn) // listener accept, fired on transition to ESTABLISHED

	// Keepalive (RFC 1122 §4.2.3.6): after an idle interval, probe the
	// peer; unanswered probes terminate the connection. Off by default.
	keepalive         *sim.Timer
	keepaliveIdle     time.Duration
	keepaliveInterval time.Duration
	keepaliveProbes   int
	probesSent        int
	lastActivity      time.Duration

	lastAdvertisedWnd int
	peerFINSeen       bool

	txSeg Segment // scratch for sendSegment

	outbox     []byte // WriteAll's bytes still to write
	closeAfter bool   // WriteAll's Close once the outbox is written

	onConnected func()
	onReadable  func()
	onWritable  func()
	onClosed    func(err error)
	terminated  bool
}

// initConn makes c, zeroed memory that the caller allocated, a connection of
// st between local and remote.
func (c *Conn) initConn(st *Stack, local, remote Endpoint) {
	*c = Conn{
		stack:             st,
		local:             local,
		remote:            remote,
		state:             StateClosed,
		mss:               st.cfg.MSS,
		rto:               inet.NewRTO(initialRTO, minRTO, maxRTO, 0),
		lastAdvertisedWnd: st.cfg.RecvBufSize,
	}
	c.sndBuf.init(st.cfg.SendBufSize, &st.bufs)
	c.rcv.init(st.cfg.RecvBufSize, &st.bufs)
	c.cwnd = initialCwnd * c.mss
	c.ssthresh = 64 * 1024
	c.rtx.InitHandler(st.sched, (*rtxExpiry)(c))
	c.delack.InitHandler(st.sched, (*delackExpiry)(c))
	c.persist.InitHandler(st.sched, (*persistExpiry)(c))
}

// A *Conn converted to one of these types is the sim.Handler of the timer
// or event named: a callback per timer without a closure per timer and
// connection.
type (
	rtxExpiry      Conn
	delackExpiry   Conn
	persistExpiry  Conn
	timeWaitExpiry Conn
)

func (c *rtxExpiry) OnTimer()      { (*Conn)(c).onRetransmitTimeout() }
func (c *delackExpiry) OnTimer()   { (*Conn)(c).sendAck() }
func (c *persistExpiry) OnTimer()  { (*Conn)(c).onPersist() }
func (c *timeWaitExpiry) OnTimer() { (*Conn)(c).terminate(nil) }

// Local returns the connection's local endpoint (a virtual-host address on
// HydraNet host servers).
func (c *Conn) Local() Endpoint { return c.local }

// Remote returns the peer endpoint.
func (c *Conn) Remote() Endpoint { return c.remote }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// RTO returns the current retransmission timeout, exponential backoff
// included.
func (c *Conn) RTO() time.Duration { return c.rto.Current() }

// BaseRTO returns the retransmission timeout without backoff: the current
// round-trip estimate's answer, however many timeouts have fired since.
func (c *Conn) BaseRTO() time.Duration { return c.rto.Base() }

// CongestionWindow returns the congestion window in bytes.
func (c *Conn) CongestionWindow() int { return c.cwnd }

// SndNxt returns the next send sequence number.
func (c *Conn) SndNxt() Seq { return c.sndNxt }

// SndUna returns the oldest unacknowledged sequence number.
func (c *Conn) SndUna() Seq { return c.sndUna }

// RcvNxt returns the next expected (deposited-through) sequence number —
// exactly the ACK number this endpoint advertises.
func (c *Conn) RcvNxt() Seq { return c.rcv.rcvNxt }

// HoldsUnacked reports whether bytes or a FIN from the peer have arrived that
// this end has not acknowledged yet: out of order, or waiting at the deposit
// gate. The peer resends them on its own retransmission timer.
func (c *Conn) HoldsUnacked() bool { return len(c.rcv.pending) > 0 || c.rcv.finSet }

// SetNoDelay disables Nagle batching of small segments. The paper's
// measurements run with sender-side batching off.
func (c *Conn) SetNoDelay(on bool) { c.noDelay = on }

// SetSegmentPerWrite preserves application write boundaries: no segment
// ever coalesces bytes from two Write calls, even on retransmission. This
// reproduces the paper's measurement configuration ("we turned off
// buffering of small segments at the TCP sender, preventing it from
// batching multiple small segments into a segment of MTU size"). Combine
// with SetNoDelay. A partial Write (full buffer) splits one logical write
// into two segments; callers that care should check WriteFree first.
func (c *Conn) SetSegmentPerWrite(on bool) { c.sndBuf.marking = on }

// OnConnected registers the callback fired when the handshake completes. It
// replaces a WriteAll outbox.
func (c *Conn) OnConnected(fn func()) { c.onConnected, c.outbox, c.closeAfter = fn, nil, false }

// OnReadable registers the callback fired when deposited data (or EOF)
// becomes available.
func (c *Conn) OnReadable(fn func()) { c.onReadable = fn }

// OnWritable registers the callback fired when send-buffer space frees up.
// It replaces a WriteAll outbox.
func (c *Conn) OnWritable(fn func()) { c.onWritable, c.outbox, c.closeAfter = fn, nil, false }

// OnClosed registers the callback fired when the connection terminates.
// err is nil for an orderly shutdown.
func (c *Conn) OnClosed(fn func(err error)) { c.onClosed = fn }

// Write appends p to the send buffer and returns how many bytes were
// accepted (possibly zero when the buffer is full — OnWritable will fire).
func (c *Conn) Write(p []byte) int {
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynRcvd, StateSynSent:
	default:
		return 0
	}
	if c.finQueued {
		return 0
	}
	n := c.sndBuf.append(p)
	c.output()
	return n
}

// WriteAll writes p as send-buffer space allows and, if closeAfter, closes
// once the last byte is written. It writes at once if the connection is
// established, else from the handshake's completion. It takes the place of
// the OnConnected and OnWritable callbacks until either is set again; the
// connection keeps p, not a copy, until it is written.
func (c *Conn) WriteAll(p []byte, closeAfter bool) {
	c.onConnected, c.onWritable = nil, nil
	c.outbox, c.closeAfter = p, closeAfter
	if c.state == StateEstablished {
		c.drain()
	}
}

// drain writes what the outbox still holds, then closes if WriteAll asked.
func (c *Conn) drain() {
	for len(c.outbox) > 0 {
		n := c.Write(c.outbox)
		if n == 0 {
			return
		}
		c.outbox = c.outbox[n:]
	}
	if c.closeAfter {
		c.closeAfter = false
		c.Close()
	}
}

// writable is a connected or writable event: the application's callback fn
// runs if it has set one, else the outbox drains (empty unless WriteAll,
// which clears both callbacks, filled it).
func (c *Conn) writable(fn func()) {
	if fn != nil {
		fn()
	} else {
		c.drain()
	}
}

// WriteFree returns the free space in the send buffer.
func (c *Conn) WriteFree() int { return c.sndBuf.free() }

// Read drains up to len(p) deposited bytes. It returns 0 both when no data
// is available and at EOF; use PeerClosed to distinguish.
func (c *Conn) Read(p []byte) int {
	wasZero := c.rcv.window() == 0
	n := c.rcv.read(p)
	if n > 0 {
		// Deposits may have been blocked on socket-buffer space.
		c.depositAndAck()
		if wasZero && c.rcv.window() > 0 {
			c.sendAck()
		}
	}
	return n
}

// PeerClosed reports whether the peer's FIN has been consumed: Read
// returning 0 then means EOF.
func (c *Conn) PeerClosed() bool { return c.peerFINSeen }

// Close initiates an orderly shutdown: buffered data is still delivered,
// then a FIN is sent.
func (c *Conn) Close() {
	switch c.state {
	case StateClosed, StateListen:
		c.terminate(ErrClosed)
		return
	case StateSynSent:
		// A close during an active open with buffered data completes the
		// handshake first, then sends the FIN; with nothing buffered the
		// open is abandoned.
		if c.sndBuf.len() == 0 {
			c.terminate(ErrClosed)
			return
		}
	}
	if c.finQueued {
		return
	}
	c.finQueued = true
	c.output()
}

// Abort sends a RST and terminates immediately.
func (c *Conn) Abort() {
	if c.state != StateClosed && c.state != StateListen && c.state != StateSynSent {
		c.sendRST(c.sndNxt)
	}
	c.terminate(ErrReset)
}

// Poke re-evaluates deposit and send gates. The ft-TCP core calls it when
// acknowledgment-channel state changes.
func (c *Conn) Poke() {
	if c.terminated {
		return
	}
	if c.state == StateSynRcvd && c.sndNxt == c.iss {
		// The SYN-ACK was withheld by the send gate; retry it now.
		c.sendSynAck()
	}
	c.depositAndAck()
	c.output()
}

// ForceRetransmit resends from sndUna immediately and clears RTO backoff.
// Used on failover promotion so the new primary repairs the client's stream
// without waiting out a backed-off timer.
func (c *Conn) ForceRetransmit() {
	if c.terminated {
		return
	}
	c.rto.ResetBackoff()
	if c.sndNxt != c.sndUna {
		c.goBackN()
		c.output()
		c.armRTX()
	}
	c.sendAck()
}

// goBackN pulls the send cursor back to the oldest unacknowledged byte
// (classic BSD behaviour on retransmission timeout): everything beyond
// sndUna is resent under ACK clocking instead of one segment per timeout.
// A FIN beyond the pulled-back cursor keeps its bookkeeping, as BSD's
// TF_SENTFIN does: finSent and the closing state stay, output sends the FIN
// again when sndNxt is back at the end of the data, and a cumulative ACK that
// covers it meanwhile is its acknowledgment (processAck).
func (c *Conn) goBackN() {
	c.sndNxt = c.sndUna
}

// --- Handshake initiation -------------------------------------------------

// open starts the active-open handshake (stack.Connect).
func (c *Conn) open() {
	c.iss = c.stack.cfg.iss(c.local, c.remote)
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.sndBuf.setBase(c.iss.Add(1))
	c.state = StateSynSent
	c.sendSegment(Segment{
		Flags: FlagSYN, Seq: c.iss, MSS: uint16(c.stack.cfg.MSS),
		Window: c.windowField(),
	})
	c.sndNxt = c.iss.Add(1)
	c.sndMax = c.sndNxt
	c.armRTX()
}

// openPassive initializes server-side state from a received SYN.
func (c *Conn) openPassive(seg *Segment) {
	c.iss = c.stack.cfg.iss(c.local, c.remote)
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.sndMax = c.iss // not the zero Seq: serial comparisons against it must hold for every ISS
	c.sndBuf.setBase(c.iss.Add(1))
	c.irs = seg.Seq
	c.rcv.setNext(seg.Seq.Add(1))
	if seg.MSS != 0 && int(seg.MSS) < c.mss {
		c.mss = int(seg.MSS)
	}
	c.sndWnd = int(seg.Window)
	c.state = StateSynRcvd
	c.sendSynAck()
	c.armRTX()
}

func (c *Conn) sendSynAck() {
	// The SYN-ACK occupies sequence number iss; the send gate applies to
	// it like any other byte (chain successors' SYN-ACKs release it).
	if limit, ok := c.sendLimit(); ok && limit.LEQ(c.iss) {
		return
	}
	c.sendSegment(Segment{
		Flags: FlagSYN | FlagACK, Seq: c.iss, Ack: c.rcv.rcvNxt,
		MSS: uint16(c.stack.cfg.MSS), Window: c.windowField(),
	})
	if c.sndNxt == c.iss {
		c.sndNxt = c.iss.Add(1)
	}
	if c.sndNxt.GT(c.sndMax) {
		c.sndMax = c.sndNxt
	}
}

// --- Output path ----------------------------------------------------------

func (c *Conn) sendLimit() (Seq, bool) {
	if c.hooks == nil {
		return 0, false
	}
	return c.hooks.SendLimit()
}

func (c *Conn) depositLimit() (Seq, bool) {
	if c.hooks == nil {
		return 0, false
	}
	return c.hooks.DepositLimit()
}

// output transmits as much new data as windows, gates and Nagle allow.
func (c *Conn) output() {
	if c.terminated {
		return
	}
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateClosing, StateLastAck, StateSynRcvd:
	default:
		return
	}
	if c.state == StateSynRcvd {
		return // nothing beyond the SYN-ACK until established
	}
	wnd := c.sndWnd
	if c.cwnd < wnd {
		wnd = c.cwnd
	}
	limit := c.sndUna.Add(wnd)
	gl, gated := c.sendLimit()
	if gated {
		limit = MinSeq(limit, gl)
	}
	dataEnd := c.sndBuf.endSeq()
	sentSomething := false
	for c.sndNxt.LT(limit) && c.sndNxt.LT(dataEnd) {
		space := limit.Diff(c.sndNxt)
		chunk := c.sndBuf.bytesFrom(c.sndNxt, c.mss)
		if len(chunk) == 0 {
			break
		}
		if len(chunk) > space {
			if c.sndBuf.marking {
				// Segment-per-write mode: never split a write at the
				// window edge; wait for the window to open.
				break
			}
			chunk = chunk[:space]
		}
		full := len(chunk) == c.mss
		last := c.sndNxt.Add(len(chunk)) == dataEnd
		if !sendNow(full, c.sndNxt == c.sndUna, c.noDelay, last && c.finQueued) {
			break
		}
		flags := FlagACK
		if last || !full {
			flags |= FlagPSH
		}
		fin := false
		if c.finQueued && last && c.finAllowed(c.sndNxt.Add(len(chunk))) {
			flags |= FlagFIN
			fin = true
		}
		c.sendSegment(Segment{
			Flags: flags, Seq: c.sndNxt, Ack: c.rcv.rcvNxt,
			Window: c.windowField(), Payload: chunk,
		})
		fresh := c.sndNxt.Add(len(chunk)).GT(c.sndMax)
		if fresh {
			c.stats.BytesSent += uint64(len(chunk))
		} else {
			c.noteRetransmit(c.sndNxt)
		}
		if !c.rttPending && fresh {
			// Karn: never sample a chunk that overlaps retransmitted data.
			c.rttPending = true
			c.rttSeq = c.sndNxt.Add(len(chunk))
			c.rttAt = c.stack.sched.Now()
		}
		c.sndNxt = c.sndNxt.Add(len(chunk))
		if fin {
			c.finSent = true
			c.sndNxt = c.sndNxt.Add(1)
			c.finStateTransition()
		}
		if c.sndNxt.GT(c.sndMax) {
			c.sndMax = c.sndNxt
		}
		sentSomething = true
	}
	// A FIN with no data left to carry it: the first one, or one a go-back-N
	// left beyond the cursor.
	if c.finQueued && c.sndNxt == dataEnd &&
		c.sndNxt.LT(c.sndUna.Add(wnd+1)) && c.finAllowed(c.sndNxt) {
		c.sendSegment(Segment{
			Flags: FlagFIN | FlagACK, Seq: c.sndNxt, Ack: c.rcv.rcvNxt,
			Window: c.windowField(),
		})
		c.finSent = true
		c.sndNxt = c.sndNxt.Add(1)
		if c.sndNxt.GT(c.sndMax) {
			c.sndMax = c.sndNxt
		}
		c.finStateTransition()
		sentSomething = true
	}
	if gated && gl.LEQ(c.sndNxt) && c.sndNxt.LT(c.sndUna.Add(wnd)) &&
		(c.sndNxt.LT(dataEnd) || c.finQueued && c.sndNxt == dataEnd) {
		// The window would take more, and data or the FIN waits at the gate.
		c.hooks.OnGateHold()
	}
	if sentSomething {
		c.armRTX()
		c.persist.Stop()
		c.persistShift = 0
		return
	}
	// Zero-window deadlock avoidance: if data waits but the peer's window
	// is closed and nothing is in flight, arm the persist timer.
	if c.sndWnd == 0 && c.sndNxt == c.sndUna && c.sndBuf.len() > 0 && !c.persist.Armed() {
		c.persist.Reset(c.persistInterval())
	}
}

// sendNow is the send decision for the next segment, in 4.4BSD tcp_output
// order: a full segment goes; so does anything when the connection is idle or
// Nagle is off; so does the last data before a queued FIN, which leaves with
// the FIN where the send gate allows it — a close-after-write response must
// not wait out the peer's delayed ACK. Any other short segment is held while
// data is unacknowledged (Nagle). tcp_output's two further reasons, a
// retransmission (snd_nxt < snd_max) and len >= max_sndwnd/2, are not adopted
// (EXPERIMENTS.md, Known divergences).
func sendNow(full, idle, noDelay, finFollows bool) bool {
	return full || idle || noDelay || finFollows
}

// finAllowed applies the send gate to the FIN, which occupies finSeq.
func (c *Conn) finAllowed(finSeq Seq) bool {
	if limit, ok := c.sendLimit(); ok {
		return limit.GT(finSeq)
	}
	return true
}

func (c *Conn) finStateTransition() {
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	}
}

func (c *Conn) persistInterval() time.Duration {
	d := time.Second << c.persistShift
	if d > 60*time.Second {
		d = 60 * time.Second
	}
	return d
}

func (c *Conn) onPersist() {
	if c.terminated || c.sndWnd > 0 || c.sndBuf.len() == 0 {
		return
	}
	// Window probe: one byte beyond the advertised window.
	probe := c.sndBuf.bytesFrom(c.sndNxt, 1)
	if len(probe) == 1 {
		if gl, ok := c.sendLimit(); !ok || gl.GT(c.sndNxt) {
			c.sendSegment(Segment{
				Flags: FlagACK | FlagPSH, Seq: c.sndNxt, Ack: c.rcv.rcvNxt,
				Window: c.windowField(), Payload: probe,
			})
		}
	}
	c.persistShift++
	c.persist.Reset(c.persistInterval())
}

func (c *Conn) windowField() uint16 {
	w := c.rcv.window()
	if w > 0xffff {
		w = 0xffff
	}
	c.lastAdvertisedWnd = w
	return uint16(w)
}

// sendAck emits an immediate pure ACK.
func (c *Conn) sendAck() {
	if c.terminated {
		return
	}
	switch c.state {
	case StateClosed, StateListen, StateSynSent:
		return
	}
	c.delack.Stop()
	c.sendSegment(Segment{
		Flags: FlagACK, Seq: c.sndNxt, Ack: c.rcv.rcvNxt, Window: c.windowField(),
	})
}

func (c *Conn) scheduleAck() {
	if c.stack.cfg.DelayedAckTimeout <= 0 {
		c.sendAck()
		return
	}
	if c.delack.Armed() {
		// Second segment since the last ACK: ack now (RFC 1122).
		c.sendAck()
		return
	}
	c.delack.Reset(c.stack.cfg.DelayedAckTimeout)
}

// sendSegment finalizes ports and hands the segment to the wire, honouring
// the suppression hook. The segment travels in the connection's scratch, so
// the hook and the stack's trace func see a pointer that is valid only for
// the call; neither may send on this connection from inside it.
func (c *Conn) sendSegment(s Segment) {
	seg := &c.txSeg
	*seg = s
	seg.SrcPort = c.local.Port
	seg.DstPort = c.remote.Port
	if c.hooks != nil && c.hooks.SuppressTransmit(seg) {
		c.stats.SegsSuppressed++
		return
	}
	c.stats.SegsSent++
	c.stack.transmit(c.local, c.remote, seg)
}

func (c *Conn) sendRST(seq Seq) {
	c.sendSegment(Segment{Flags: FlagRST | FlagACK, Seq: seq, Ack: c.rcv.rcvNxt})
}

// --- Retransmission -------------------------------------------------------

func (c *Conn) armRTX() {
	if c.sndNxt == c.sndUna && c.state != StateSynSent && c.state != StateSynRcvd {
		c.rtx.Stop()
		return
	}
	c.rtx.Reset(c.rto.Current())
}

func (c *Conn) onRetransmitTimeout() {
	if c.terminated {
		return
	}
	c.rtxCount++
	c.stats.RTOEvents++
	if b := c.stack.bus; b.Enabled(obs.KindRTO) {
		b.Publish(obs.Event{
			Kind: obs.KindRTO, Node: c.stack.nodeName(),
			Conn: c.remote, Seq: uint64(c.sndUna), Count: c.rtxCount,
		})
	}
	if c.rtxCount > maxRetries {
		c.terminate(ErrTimeout)
		return
	}
	if c.hooks != nil {
		c.hooks.OnRTO()
	}
	// Collapse the congestion window (Tahoe-style on timeout).
	flight := c.sndNxt.Diff(c.sndUna)
	c.ssthresh = maxInt(flight/2, 2*c.mss)
	c.cwnd = c.mss
	c.dupAcks = 0
	c.inFastRecovery = false
	c.rto.TimedOut()
	c.rttPending = false // Karn: do not sample retransmitted segments
	switch c.state {
	case StateSynSent, StateSynRcvd:
		c.retransmitOne()
	default:
		c.goBackN()
		c.output()
	}
	c.armRTX()
}

// retransmitOne resends the earliest unacknowledged item (SYN, data, or FIN).
func (c *Conn) retransmitOne() {
	switch c.state {
	case StateSynSent:
		c.sendSegment(Segment{
			Flags: FlagSYN, Seq: c.iss, MSS: uint16(c.stack.cfg.MSS), Window: c.windowField(),
		})
		return
	case StateSynRcvd:
		c.sendSynAck()
		return
	}
	chunk := c.sndBuf.bytesFrom(c.sndUna, c.mss)
	if len(chunk) > 0 {
		flags := FlagACK | FlagPSH
		if c.finSent && c.sndUna.Add(len(chunk)).Add(1) == c.sndNxt {
			flags |= FlagFIN
		}
		c.noteRetransmit(c.sndUna)
		c.sendSegment(Segment{
			Flags: flags, Seq: c.sndUna, Ack: c.rcv.rcvNxt,
			Window: c.windowField(), Payload: chunk,
		})
		return
	}
	if c.finSent && c.sndUna.Add(1) == c.sndNxt {
		c.noteRetransmit(c.sndUna)
		c.sendSegment(Segment{
			Flags: FlagFIN | FlagACK, Seq: c.sndUna, Ack: c.rcv.rcvNxt, Window: c.windowField(),
		})
	}
}

// noteRetransmit counts a data retransmission from seq and publishes it on
// the observability bus.
func (c *Conn) noteRetransmit(seq Seq) {
	c.stats.Retransmits++
	if b := c.stack.bus; b.Enabled(obs.KindRetransmit) {
		b.Publish(obs.Event{
			Kind: obs.KindRetransmit, Node: c.stack.nodeName(),
			Conn: c.remote, Seq: uint64(seq),
		})
	}
}

// --- Termination ----------------------------------------------------------

// enterTimeWait parks the connection for 2MSL holding only what the wait
// needs: everything sent is acknowledged and everything the peer sent is
// deposited, so the buffers go back to the stack.
func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.rtx.Stop()
	c.delack.Stop()
	c.persist.Stop()
	c.sndBuf.release()
	c.rcv.release()
	c.startTimeWait()
}

// startTimeWait (re)starts the 2MSL wait: a new entry at the tail of the
// stack's TIME-WAIT lane, the superseded one cancelled where it waits. It
// consumes one scheduler sequence number, as re-arming a timer would.
func (c *Conn) startTimeWait() {
	c.timeWait.Cancel()
	st := c.stack
	wait := st.cfg.TimeWaitDuration
	if wait < 0 {
		wait = 0
	}
	c.timeWait = st.timeWait.AtHandler(st.sched, st.sched.Now()+wait, (*timeWaitExpiry)(c))
}

// terminate tears the connection down and notifies callbacks exactly once.
func (c *Conn) terminate(err error) {
	if c.terminated {
		return
	}
	c.terminated = true
	c.state = StateClosed
	c.rtx.Stop()
	c.delack.Stop()
	c.persist.Stop()
	c.timeWait.Cancel()
	if c.keepalive != nil {
		c.keepalive.Stop()
	}
	c.sndBuf.release()
	c.rcv.release()
	c.stack.removeConn(c)
	if c.hooks != nil {
		c.hooks.OnClosed(err)
	}
	if c.onClosed != nil {
		c.onClosed(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
