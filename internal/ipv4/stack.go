package ipv4

import (
	"fmt"
	"slices"

	"hydranet/internal/inet"
	"hydranet/internal/netsim"
	"hydranet/internal/sim"
)

// DefaultTTL is the initial TTL on locally originated datagrams.
const DefaultTTL = 64

// ProtocolHandler is implemented by transport layers (TCP, UDP) and by the
// IP-in-IP decapsulator to receive locally delivered datagrams. pkt is the
// receiver's scratch: it (like the payload bytes it aliases) is valid only
// for the duration of the call. The same holds for the packet passed to a
// ForwardHook.
type ProtocolHandler interface {
	DeliverIP(pkt *Packet)
}

// ForwardHook lets a router component (the HydraNet redirector) inspect and
// possibly consume packets in the forwarding path. Intercept returning true
// means the hook took ownership; the stack will not forward the packet
// further.
type ForwardHook interface {
	Intercept(pkt *Packet) bool
}

// ForwardFunc adapts a plain callback to a ForwardHook.
type ForwardFunc func(pkt *Packet) bool

func (f ForwardFunc) Intercept(pkt *Packet) bool { return f(pkt) }

// StackStats counts datagram dispositions at one stack.
type StackStats struct {
	Delivered   uint64 `json:"delivered"`  // datagrams handed to a local protocol handler
	Forwarded   uint64 `json:"forwarded"`  // datagrams routed onward
	Originated  uint64 `json:"originated"` // datagrams sent from this stack
	BadHeader   uint64 `json:"bad_header"` // unparseable or checksum-failed frames
	NoRoute     uint64 `json:"no_route"`
	TTLExceeded uint64 `json:"ttl_exceeded"`
	NoProto     uint64 `json:"no_proto"` // delivered locally but no handler for the protocol
}

// Stack is a per-node IPv4 layer: address ownership, routing, forwarding,
// fragmentation and reassembly, and protocol demultiplexing.
type Stack struct {
	node  *netsim.Node
	sched *sim.Scheduler

	local      []Addr // addresses delivered locally (iface + virtual hosts), each once
	ifaceAddrs []Addr // primary address per interface, for source selection
	routes     RoutingTable
	protos     [numProtos]ProtocolHandler // by protoSlot
	reasm      Reassembler
	nextID     uint16
	forwarding bool
	fwdHook    ForwardHook

	// rx is the scratch every received frame is parsed into. The *Packet
	// handed to protocol handlers and the forward hook points here (or at a
	// reassembled datagram) and, like the frame bytes it aliases, is valid
	// only until the call returns.
	rx Packet

	stats StackStats

	// The tables' backing up to four interfaces and one virtual host.
	local0      [5]Addr
	ifaceAddrs0 [4]Addr
}

var _ netsim.FrameHandler = (*Stack)(nil)

// NewStack creates an IPv4 stack and installs it as the node's frame
// handler.
func NewStack(node *netsim.Node, sched *sim.Scheduler) *Stack { return new(Stack).Init(node, sched) }

// Init is NewStack for a Stack embedded by value, which must not be copied
// afterwards.
func (s *Stack) Init(node *netsim.Node, sched *sim.Scheduler) *Stack {
	s.node, s.sched = node, sched
	s.local, s.ifaceAddrs = s.local0[:0], s.ifaceAddrs0[:0]
	s.reasm.Init(sched)
	node.SetHandler(s)
	return s
}

// Node returns the underlying netsim node.
func (s *Stack) Node() *netsim.Node { return s.node }

// Scheduler returns the scheduler driving this stack.
func (s *Stack) Scheduler() *sim.Scheduler { return s.sched }

// Poisoned reports whether the node's frame pool is in poison mode, in which
// every layer scribbles its scratch Packet/Segment/message once the handler
// it was passed to has returned (see frame.Pool.SetPoison).
func (s *Stack) Poisoned() bool { return s.node.Pool().Poisoned() }

// Stats returns a snapshot of the stack's counters.
func (s *Stack) Stats() StackStats { return s.stats }

// Reassembly returns a snapshot of the reassembler's drop counters.
func (s *Stack) Reassembly() ReassemblyStats { return s.reasm.ReassemblyStats }

// SetAddr assigns the primary address of interface ifindex and marks it
// local.
func (s *Stack) SetAddr(ifindex int, a Addr) {
	for len(s.ifaceAddrs) <= ifindex {
		s.ifaceAddrs = append(s.ifaceAddrs, 0)
	}
	s.ifaceAddrs[ifindex] = a
	s.AddLocalAddr(a)
}

// Addr returns the primary address of interface ifindex (zero if unset).
func (s *Stack) Addr(ifindex int) Addr {
	if ifindex < 0 || ifindex >= len(s.ifaceAddrs) {
		return 0
	}
	return s.ifaceAddrs[ifindex]
}

// IsInterfaceAddr reports whether a is assigned to one of the stack's
// interfaces (as opposed to a virtual-host address).
func (s *Stack) IsInterfaceAddr(a Addr) bool { return a != 0 && slices.Contains(s.ifaceAddrs, a) }

// AddLocalAddr marks an address as locally delivered without binding it to
// an interface. Host servers use this to host virtual hosts: services known
// to the world under the IP address of another machine (paper Section 3).
func (s *Stack) AddLocalAddr(a Addr) {
	if !s.IsLocal(a) {
		s.local = append(s.local, a)
	}
}

// RemoveLocalAddr withdraws a virtual-host address.
func (s *Stack) RemoveLocalAddr(a Addr) {
	if i := slices.Index(s.local, a); i >= 0 {
		s.local = slices.Delete(s.local, i, i+1)
	}
}

// IsLocal reports whether the stack delivers datagrams for a locally. The
// set is a handful of addresses, so a scan beats a hash.
func (s *Stack) IsLocal(a Addr) bool { return slices.Contains(s.local, a) }

// Routes exposes the routing table for topology construction.
func (s *Stack) Routes() *RoutingTable { return &s.routes }

// SetForwarding enables router behaviour for non-local datagrams.
func (s *Stack) SetForwarding(on bool) { s.forwarding = on }

// SetForwardHook installs the redirector intercept in the forwarding path.
func (s *Stack) SetForwardHook(h ForwardHook) { s.fwdHook = h }

// numProtos is the number of IP protocols a stack carries: IP-in-IP, TCP
// and UDP. Their handlers sit in a fixed table, indexed by protoSlot.
const numProtos = 3

// protoSlot returns proto's index in Stack.protos, or -1 for a protocol the
// stack does not carry.
func protoSlot(proto uint8) int {
	switch proto {
	case ProtoIPIP:
		return 0
	case ProtoTCP:
		return 1
	case ProtoUDP:
		return 2
	}
	return -1
}

// RegisterProto installs the handler for an IP protocol number: ProtoIPIP,
// ProtoTCP or ProtoUDP. Any other number panics.
func (s *Stack) RegisterProto(proto uint8, h ProtocolHandler) {
	i := protoSlot(proto)
	if i < 0 {
		panic(fmt.Sprintf("ipv4: no handler slot for protocol %d", proto))
	}
	s.protos[i] = h
}

// Send originates a datagram from a copy of payload. A zero src selects
// the source address with SourceFor.
func (s *Stack) Send(proto uint8, src, dst Addr, payload []byte) error {
	if src == 0 {
		src = s.SourceFor(dst)
	}
	return s.SendSegment(proto, src, dst, s.node.Pool().GetCopy(payload))
}

// SourceFor returns the source address a datagram to dst leaves with: dst
// itself when it is local, else the outgoing interface's address, or zero
// when there is no route.
func (s *Stack) SourceFor(dst Addr) Addr {
	if s.IsLocal(dst) {
		return dst
	}
	if ifindex := s.routes.Lookup(dst); ifindex >= 0 {
		return s.Addr(ifindex)
	}
	return 0
}

func (s *Stack) allocID() uint16 {
	s.nextID++
	return s.nextID
}

// HandleFrame implements netsim.FrameHandler.
func (s *Stack) HandleFrame(ifindex int, frame []byte) {
	p := &s.rx
	if err := p.Unmarshal(frame); err != nil {
		s.stats.BadHeader++
		return
	}
	s.input(p)
	if s.Poisoned() {
		p.Scribble()
	}
}

// input delivers or forwards one parsed frame.
func (s *Stack) input(p *Packet) {
	if s.IsLocal(p.Dst) || p.Dst == inet.Broadcast {
		s.InjectLocal(p)
		return
	}
	if !s.forwarding {
		return
	}
	if p.TTL <= 1 {
		s.stats.TTLExceeded++
		return
	}
	p.TTL--
	if s.fwdHook != nil && s.fwdHook.Intercept(p) {
		return
	}
	s.stats.Forwarded++
	// A datagram that cannot be forwarded is dropped.
	_ = s.forward(p) //nolint:errcheck
}

// InjectLocal delivers an already-parsed datagram to local protocol
// handlers, bypassing routing. The host server's IP-in-IP decapsulator uses
// this for inner packets addressed to virtual hosts. A fragment goes to the
// reassembler instead; the one that completes its datagram delivers it.
func (s *Stack) InjectLocal(p *Packet) {
	if p.FragOff == 0 && !p.MoreFrag {
		s.deliverLocal(p)
		return
	}
	// The handler may be the decapsulator injecting an inner fragment: d is
	// ours alone until it is recycled, whatever that nested call completes.
	if d := s.reasm.Add(p); d != nil {
		s.deliverLocal(d.Packet())
		s.reasm.Recycle(d, s.Poisoned())
	}
}

func (s *Stack) deliverLocal(p *Packet) {
	var h ProtocolHandler
	if i := protoSlot(p.Proto); i >= 0 {
		h = s.protos[i]
	}
	if h == nil {
		s.stats.NoProto++
		return
	}
	s.stats.Delivered++
	h.DeliverIP(p)
}
