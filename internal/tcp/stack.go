package tcp

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/metrics"
	"hydranet/internal/obs"
	"hydranet/internal/sim"
)

// initialRTO, minRTO and maxRTO bound the retransmission timeout: BSD-era
// conservative values; the paper attributes most FT-mode overhead to client
// timeout waits.
const (
	initialRTO = time.Second
	minRTO     = 500 * time.Millisecond
	maxRTO     = 60 * time.Second
)

const (
	// initialCwnd is the initial congestion window in segments.
	initialCwnd = 2
	// maxRetries is how many consecutive timeouts abort a connection.
	maxRetries = 12
)

// Config tunes a TCP stack. The zero value is completed by DefaultConfig.
type Config struct {
	// MSS is the maximum segment size advertised and used. Default 1460
	// (Ethernet MTU minus IP and TCP headers).
	MSS int
	// SendBufSize and RecvBufSize are the socket buffer capacities.
	// Defaults 32768.
	SendBufSize int
	RecvBufSize int
	// DelayedAckTimeout is the delayed-ACK timer; zero or negative
	// acknowledges every data segment immediately.
	DelayedAckTimeout time.Duration
	// TimeWaitDuration is the 2MSL TIME-WAIT hold. Default 30s.
	TimeWaitDuration time.Duration

	// iss generates initial send sequence numbers: TupleISS, which makes
	// all replicas of a HydraNet-FT service agree on sequence numbers for
	// a given client — the property transparent failover relies on (see
	// DESIGN.md). Only this package's tests set another.
	iss func(local, remote Endpoint) Seq
}

// DefaultConfig fills unset fields with defaults.
func DefaultConfig(cfg Config) Config {
	if cfg.MSS == 0 {
		cfg.MSS = 1460
	}
	if cfg.SendBufSize == 0 {
		cfg.SendBufSize = 32768
	}
	if cfg.RecvBufSize == 0 {
		cfg.RecvBufSize = 32768
	}
	if cfg.TimeWaitDuration == 0 {
		cfg.TimeWaitDuration = 30 * time.Second
	}
	if cfg.iss == nil {
		cfg.iss = TupleISS
	}
	return cfg
}

// TupleISS derives a deterministic initial sequence number from the
// connection 4-tuple.
func TupleISS(local, remote Endpoint) Seq {
	h := fnv.New32a()
	var b [12]byte
	b[0] = byte(local.Addr >> 24)
	b[1] = byte(local.Addr >> 16)
	b[2] = byte(local.Addr >> 8)
	b[3] = byte(local.Addr)
	b[4] = byte(local.Port >> 8)
	b[5] = byte(local.Port)
	b[6] = byte(remote.Addr >> 24)
	b[7] = byte(remote.Addr >> 16)
	b[8] = byte(remote.Addr >> 8)
	b[9] = byte(remote.Addr)
	b[10] = byte(remote.Port >> 8)
	b[11] = byte(remote.Port)
	h.Write(b[:])
	return Seq(h.Sum32())
}

// StackStats counts stack-level events.
type StackStats struct {
	SegsIn      uint64 `json:"segs_in"`
	SegsOut     uint64 `json:"segs_out"`
	BadSegments uint64 `json:"bad_segments"`
	RSTsSent    uint64 `json:"rsts_sent"`
	NoSocket    uint64 `json:"no_socket"`
}

// connKey is a connection's key in the table: two endpoint Keys, ordered
// local first.
type connKey struct {
	local, remote inet.Key
}

func keyOf(local, remote Endpoint) connKey {
	return connKey{local: local.Key(), remote: remote.Key()}
}

func (k connKey) compare(o connKey) int {
	if k.local != o.local {
		return cmp.Compare(k.local, o.local)
	}
	return cmp.Compare(k.remote, o.remote)
}

// connEntry is one row of the connection table.
type connEntry struct {
	key connKey
	c   *Conn
}

// TraceFunc observes segments at the stack boundary: dir is "in" or "out".
// seg is one of the stack's scratch segments (and its payload aliases a
// frame): valid only for the duration of the call.
type TraceFunc func(dir string, local, remote Endpoint, seg *Segment)

// Stack is the per-node TCP layer.
type Stack struct {
	ip    *ipv4.Stack
	sched *sim.Scheduler
	cfg   Config

	// conns is sorted by key, so a walk goes in endpoint order and a lookup
	// is a binary search; the first four rows live here.
	conns  []connEntry
	conns0 [4]connEntry
	// listeners is a handful, so a scan beats a hash; the first two live here.
	listeners  []*Listener
	listeners0 [2]*Listener
	lsn0       [2]Listener
	ephemeral  uint16
	stats      StackStats
	trace      TraceFunc
	bus        *obs.Bus

	// bufs recycles socket-buffer arrays between this stack's connections.
	bufs bufPool
	// timeWait queues the 2MSL expiry of every connection in TIME-WAIT. They
	// all wait cfg.TimeWaitDuration, so their deadlines never decrease and
	// the whole population holds one scheduler heap slot.
	timeWait sim.Lane

	// Scratch segments: rx holds the segment being delivered, tx the
	// stack's own transmissions (resets for segments matching no socket;
	// connections send through a scratch of their own). Both are valid only
	// until the delivering or transmitting call returns.
	rx, tx Segment

	// rttHist accumulates smoothed-round-trip samples (milliseconds) from
	// every connection's Karn-guarded RTT measurements.
	rttHist metrics.Histogram
	// closedTotals accumulates the ConnStats of connections that have been
	// torn down, so ConnTotals covers the stack's whole history.
	closedTotals ConnStats
}

var _ ipv4.ProtocolHandler = (*Stack)(nil)

// NewStack creates the TCP layer and registers it with the IP stack.
func NewStack(ip *ipv4.Stack, cfg Config) *Stack { return new(Stack).Init(ip, cfg) }

// Init is NewStack for a Stack embedded by value, which must not be copied
// afterwards.
func (s *Stack) Init(ip *ipv4.Stack, cfg Config) *Stack {
	s.ip, s.sched, s.cfg = ip, ip.Scheduler(), DefaultConfig(cfg)
	s.conns, s.listeners = s.conns0[:0], s.listeners0[:0]
	s.ephemeral = firstEphemeral
	s.bufs.frames = ip.Node().Pool()
	for k := range s.bufs.free {
		s.bufs.free[k] = s.bufs.free0[k][:0]
	}
	ip.RegisterProto(ipv4.ProtoTCP, s)
	return s
}

// Scheduler returns the scheduler driving the stack.
func (s *Stack) Scheduler() *sim.Scheduler { return s.sched }

// IP returns the underlying IPv4 stack.
func (s *Stack) IP() *ipv4.Stack { return s.ip }

// Stats returns a snapshot of the stack counters.
func (s *Stack) Stats() StackStats { return s.stats }

// SetTrace installs a segment observer (tests, debugging).
func (s *Stack) SetTrace(fn TraceFunc) { s.trace = fn }

// SetBus attaches an observability event bus; the stack emits retransmit,
// RTO and fast-retransmit events on it. A nil bus disables emission.
func (s *Stack) SetBus(b *obs.Bus) { s.bus = b }

// nodeName labels events with the owning node.
func (s *Stack) nodeName() string { return s.ip.Node().Name() }

// RTTHistogram exposes the stack-wide RTT sample histogram (milliseconds).
func (s *Stack) RTTHistogram() *metrics.Histogram { return &s.rttHist }

// ConnTotals sums per-connection counters over every connection the stack
// has carried: live ones plus the accumulated totals of closed ones.
func (s *Stack) ConnTotals() ConnStats {
	t := s.closedTotals
	for _, e := range s.conns {
		t.accumulate(e.c.stats)
	}
	return t
}

// NumConns returns the number of live connections.
func (s *Stack) NumConns() int { return len(s.conns) }

// Listener accepts inbound connections for one (addr, port); addr 0 is the
// wildcard.
type Listener struct {
	stack  *Stack
	local  Endpoint
	setup  ConnSetup   // ft-TCP record, runs at SYN time
	accept func(*Conn) // application accept, runs when established
}

// ConnSetup is asked for each new connection from remote at SYN time, before
// the SYN-ACK is generated. It returns zeroed memory for the connection and
// the connection's ConnHooks, so even the handshake obeys chain gating: the
// HydraNet-FT core hands over the Conn embedded in its per-connection record,
// and the stack initialises it there.
type ConnSetup interface {
	SetupConn(remote Endpoint) (*Conn, ConnHooks)
}

// SetSetup installs the listener's ConnSetup.
func (l *Listener) SetSetup(cs ConnSetup) { l.setup = cs }

// SetAcceptFunc installs the application's accept callback, invoked when
// the handshake completes.
func (l *Listener) SetAcceptFunc(fn func(*Conn)) { l.accept = fn }

// Close stops accepting new connections (existing ones are unaffected).
func (l *Listener) Close() {
	l.stack.listeners = slices.DeleteFunc(l.stack.listeners, func(x *Listener) bool { return x == l })
}

// listener returns the listener bound to local, or nil.
func (s *Stack) listener(local Endpoint) *Listener {
	if i := slices.IndexFunc(s.listeners, func(l *Listener) bool { return l.local == local }); i >= 0 {
		return s.listeners[i]
	}
	return nil
}

// Listen binds a listener to (addr, port). A zero addr accepts connections
// to any local address, which is how replica server programs bind the same
// well-known port on every virtual host.
func (s *Stack) Listen(addr ipv4.Addr, port uint16) (*Listener, error) {
	key := Endpoint{Addr: addr, Port: port}
	if s.listener(key) != nil {
		return nil, fmt.Errorf("%w: %s", ErrListenBusy, key)
	}
	l := &s.lsn0[len(s.listeners)%len(s.lsn0)]
	if len(s.listeners) >= len(s.lsn0) || l.stack != nil { // a closed one's owner may hold it
		l = new(Listener)
	}
	*l = Listener{stack: s, local: key}
	s.listeners = append(s.listeners, l)
	return l, nil
}

// Connect starts an active open to remote. A zero localAddr selects the
// outgoing interface address. The returned Conn reports progress through
// its callbacks.
func (s *Stack) Connect(localAddr ipv4.Addr, remote Endpoint) (*Conn, error) {
	if localAddr == 0 {
		ifindex := s.ip.Routes().Lookup(remote.Addr)
		if ifindex < 0 {
			return nil, fmt.Errorf("tcp: no route to %s", remote.Addr)
		}
		localAddr = s.ip.Addr(ifindex)
	}
	local := Endpoint{Addr: localAddr, Port: s.allocEphemeral(localAddr, remote)}
	if local.Port == 0 {
		return nil, fmt.Errorf("tcp: no free port for a connection %s-%s", localAddr, remote)
	}
	c := new(Conn)
	c.initConn(s, local, remote)
	s.addConn(c)
	c.open()
	return c, nil
}

// firstEphemeral starts the dynamic port range (RFC 6335), which runs to
// 65535.
const firstEphemeral = 49152

// allocEphemeral returns the next port of the dynamic range, in rotation,
// that has neither a listener nor a live connection — TIME-WAIT included —
// from localAddr to remote, or 0 when the whole range is taken.
func (s *Stack) allocEphemeral(localAddr ipv4.Addr, remote Endpoint) uint16 {
	for tried := 0; tried <= 0xffff-firstEphemeral; tried++ {
		s.ephemeral++
		if s.ephemeral < firstEphemeral {
			s.ephemeral = firstEphemeral
		}
		if s.listener(Endpoint{Port: s.ephemeral}) != nil {
			continue
		}
		local := Endpoint{Addr: localAddr, Port: s.ephemeral}
		if _, busy := s.search(keyOf(local, remote)); busy {
			continue
		}
		return s.ephemeral
	}
	return 0
}

// DeliverIP implements ipv4.ProtocolHandler.
func (s *Stack) DeliverIP(p *ipv4.Packet) {
	seg := &s.rx
	if err := seg.Unmarshal(p.Src, p.Dst, p.Payload); err != nil {
		s.stats.BadSegments++
		return
	}
	s.input(p, seg)
	if s.ip.Poisoned() {
		seg.Scribble()
	}
}

// input demultiplexes one parsed segment to its connection or listener.
func (s *Stack) input(p *ipv4.Packet, seg *Segment) {
	s.stats.SegsIn++
	local := Endpoint{Addr: p.Dst, Port: seg.DstPort}
	remote := Endpoint{Addr: p.Src, Port: seg.SrcPort}
	if s.trace != nil {
		s.trace("in", local, remote, seg)
	}
	if c := s.FindConn(local, remote); c != nil {
		c.input(seg)
		return
	}
	// New connection: a SYN for a listener.
	l := s.listener(local)
	if l == nil {
		l = s.listener(Endpoint{Port: seg.DstPort}) // wildcard
	}
	if l != nil && seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagACK) {
		var c *Conn
		var hooks ConnHooks
		if l.setup == nil {
			c = new(Conn)
		} else {
			c, hooks = l.setup.SetupConn(remote)
		}
		c.initConn(s, local, remote)
		c.hooks, c.acceptFn = hooks, l.accept
		s.addConn(c)
		c.openPassive(seg)
		return
	}
	s.stats.NoSocket++
	if !seg.Flags.Has(FlagRST) {
		s.sendRSTFor(local, remote, seg)
	}
}

// sendRSTFor answers a segment that matches no socket (RFC 793 reset
// generation).
func (s *Stack) sendRSTFor(local, remote Endpoint, seg *Segment) {
	s.stats.RSTsSent++
	rst := &s.tx
	*rst = Segment{SrcPort: local.Port, DstPort: remote.Port, Flags: FlagRST}
	if seg.Flags.Has(FlagACK) {
		rst.Seq = seg.Ack
	} else {
		rst.Flags |= FlagACK
		rst.Ack = seg.Seq.Add(seg.Len())
	}
	s.transmit(local, remote, rst)
}

// transmit marshals and sends a segment from local to remote. The segment
// marshals once, directly into a pooled frame buffer with IP headroom, so
// the bytes written here are the bytes that cross the fabric.
func (s *Stack) transmit(local, remote Endpoint, seg *Segment) {
	if s.trace != nil {
		s.trace("out", local, remote, seg)
	}
	s.stats.SegsOut++
	fb := s.ip.Node().Pool().Get(seg.WireLen())
	seg.MarshalInto(fb.Bytes(), local.Addr, remote.Addr)
	// Errors (no route) surface as drops; TCP recovers by retransmission.
	_ = s.ip.SendSegment(ipv4.ProtoTCP, local.Addr, remote.Addr, fb) //nolint:errcheck
}

// search returns where key is, or would go, in the connection table.
func (s *Stack) search(key connKey) (int, bool) {
	return slices.BinarySearchFunc(s.conns, key, func(e connEntry, k connKey) int { return e.key.compare(k) })
}

func (s *Stack) addConn(c *Conn) {
	key := keyOf(c.local, c.remote)
	i, _ := s.search(key)
	s.conns = slices.Insert(s.conns, i, connEntry{key: key, c: c})
}

func (s *Stack) removeConn(c *Conn) {
	// removeConn runs exactly once per connection (from terminate), so the
	// connection's counters move into the closed totals exactly once.
	s.closedTotals.accumulate(c.stats)
	if i, ok := s.search(keyOf(c.local, c.remote)); ok {
		s.conns = slices.Delete(s.conns, i, i+1)
	}
}

// Conn lookup for diagnostics and the ft-TCP core.
func (s *Stack) FindConn(local, remote Endpoint) *Conn {
	if i, ok := s.search(keyOf(local, remote)); ok {
		return s.conns[i].c
	}
	return nil
}

// Conns returns all live connections (copy), sorted by endpoint pair.
func (s *Stack) Conns() []*Conn {
	out := make([]*Conn, len(s.conns))
	for i, e := range s.conns {
		out[i] = e.c
	}
	return out
}

// Reset drops every connection without emitting segments — the protocol
// state a machine loses when it crashes. Listeners survive: a rebooting
// machine's services come back and re-listen. Termination emits events and
// runs callbacks, which may open or end connections, so the walk goes by key:
// each connection still live when its turn comes is reset once, in endpoint
// order.
func (s *Stack) Reset() {
	for i := 0; i < len(s.conns); {
		key := s.conns[i].key
		s.conns[i].c.terminate(ErrReset)
		var ok bool
		if i, ok = s.search(key); ok {
			i++
		}
	}
}
