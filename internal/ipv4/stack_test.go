package ipv4

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"hydranet/internal/frame"
	"hydranet/internal/inet"
	"hydranet/internal/netsim"
	"hydranet/internal/sim"
)

type sink struct {
	pkts []*Packet
}

// DeliverIP keeps a copy: p and its payload are the stack's for the call only.
func (s *sink) DeliverIP(p *Packet) { s.pkts = append(s.pkts, clonePacket(p)) }

func clonePacket(p *Packet) *Packet {
	c := *p
	c.Payload = append([]byte(nil), p.Payload...)
	return &c
}

// segment puts payload in a pooled frame of s's network, the way a
// transport hands a datagram to SendSegment.
func segment(s *Stack, payload []byte) *frame.Buf {
	fb := s.Node().Pool().Get(len(payload))
	copy(fb.Bytes(), payload)
	return fb
}

// noFramesOut is the leak check, made once the run is idle: every frame
// taken from s's network pool has been released.
func noFramesOut(t *testing.T, s *Stack) {
	t.Helper()
	if n := s.Node().Pool().Outstanding(); n != 0 {
		t.Fatalf("%d frames outstanding once idle, want 0", n)
	}
}

// threeNodeNet builds client — router — server with /24s on each side.
func threeNodeNet(t *testing.T, link netsim.LinkConfig) (sched *sim.Scheduler, cs, rs, ss *Stack) {
	t.Helper()
	sched = sim.NewScheduler(3)
	net := netsim.New(sched)
	c := net.AddNode(netsim.NodeConfig{Name: "client"})
	r := net.AddNode(netsim.NodeConfig{Name: "router"})
	sv := net.AddNode(netsim.NodeConfig{Name: "server"})
	net.Connect(c, r, link)
	net.Connect(r, sv, link)

	cs = NewStack(c, sched)
	rs = NewStack(r, sched)
	ss = NewStack(sv, sched)

	cs.SetAddr(0, inet.MustParseAddr("10.1.0.2"))
	rs.SetAddr(0, inet.MustParseAddr("10.1.0.1"))
	rs.SetAddr(1, inet.MustParseAddr("10.2.0.1"))
	ss.SetAddr(0, inet.MustParseAddr("10.2.0.2"))

	cs.Routes().AddDefault(0)
	ss.Routes().AddDefault(0)
	rs.Routes().Add(Route{Dst: MustParsePrefix("10.1.0.0/24"), Ifindex: 0})
	rs.Routes().Add(Route{Dst: MustParsePrefix("10.2.0.0/24"), Ifindex: 1})
	rs.SetForwarding(true)
	return sched, cs, rs, ss
}

func TestEndToEndDelivery(t *testing.T) {
	sched, cs, _, ss := threeNodeNet(t, netsim.LinkConfig{})
	recv := &sink{}
	ss.RegisterProto(ProtoUDP, recv)
	if err := cs.Send(ProtoUDP, 0, inet.MustParseAddr("10.2.0.2"), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(recv.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(recv.pkts))
	}
	p := recv.pkts[0]
	if p.Src != inet.MustParseAddr("10.1.0.2") {
		t.Errorf("src = %s, want auto-selected 10.1.0.2", p.Src)
	}
	if string(p.Payload) != "ping" {
		t.Errorf("payload %q", p.Payload)
	}
	if p.TTL != DefaultTTL-1 {
		t.Errorf("TTL = %d, want %d after one hop", p.TTL, DefaultTTL-1)
	}
}

func TestForwardingDisabledDropsTransit(t *testing.T) {
	sched, cs, rs, ss := threeNodeNet(t, netsim.LinkConfig{})
	rs.SetForwarding(false)
	recv := &sink{}
	ss.RegisterProto(ProtoUDP, recv)
	_ = cs.Send(ProtoUDP, 0, inet.MustParseAddr("10.2.0.2"), []byte("x"))
	sched.Run()
	if len(recv.pkts) != 0 {
		t.Fatal("packet crossed a non-forwarding node")
	}
}

// TestLoopbackDelivery: a datagram to the stack's own address comes back up
// through its handler, sent as bytes or as a pooled frame. The frame lives
// until the deferred delivery has run, and is released there.
func TestLoopbackDelivery(t *testing.T) {
	sched, cs, _, _ := threeNodeNet(t, netsim.LinkConfig{})
	recv := &sink{}
	cs.RegisterProto(ProtoUDP, recv)
	self := inet.MustParseAddr("10.1.0.2")
	if err := cs.Send(ProtoUDP, 0, self, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if err := cs.SendSegment(ProtoUDP, self, self, segment(cs, []byte("frame"))); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(recv.pkts) != 2 || string(recv.pkts[0].Payload) != "self" || string(recv.pkts[1].Payload) != "frame" {
		t.Fatal("loopback delivery failed")
	}
	noFramesOut(t, cs)
}

// TestLoopbackSendCopies: Send queues a copy of its payload, so a caller
// that reuses its buffer once Send returns does not change what the local
// handler receives.
func TestLoopbackSendCopies(t *testing.T) {
	sched, cs, _, _ := threeNodeNet(t, netsim.LinkConfig{})
	recv := &sink{}
	cs.RegisterProto(ProtoUDP, recv)
	self := inet.MustParseAddr("10.1.0.2")
	buf := []byte("original")
	if err := cs.Send(ProtoUDP, 0, self, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "mutated!")
	sched.Run()
	if len(recv.pkts) != 1 {
		t.Fatalf("loopback delivered %d datagrams, want 1", len(recv.pkts))
	}
	if got := string(recv.pkts[0].Payload); got != "original" {
		t.Fatalf("loopback delivered %q, want the bytes Send was given", got)
	}
	if p := recv.pkts[0]; p.Src != self {
		t.Errorf("src = %s, want %s: a local destination is its own source", p.Src, self)
	}
	noFramesOut(t, cs)
}

// TestNoRouteError: both send paths fail with no route, and SendSegment
// releases the frame it was handed.
func TestNoRouteError(t *testing.T) {
	sched := sim.NewScheduler(1)
	net := netsim.New(sched)
	n := net.AddNode(netsim.NodeConfig{Name: "lonely"})
	s := NewStack(n, sched)
	dst := inet.MustParseAddr("1.2.3.4")
	if err := s.Send(ProtoUDP, 0, dst, nil); err == nil {
		t.Fatal("Send with no route succeeded")
	}
	if err := s.SendSegment(ProtoUDP, inet.MustParseAddr("10.0.0.1"), dst, segment(s, []byte("x"))); err == nil {
		t.Fatal("SendSegment with no route succeeded")
	}
	if s.Stats().NoRoute != 2 {
		t.Errorf("NoRoute = %d, want 2", s.Stats().NoRoute)
	}
	noFramesOut(t, s)
}

// TestOversizeDatagramRefused: a datagram longer than TotalLen can describe
// is refused before any fragment leaves, and its frame is released; the
// largest legal one is cut and reassembled.
func TestOversizeDatagramRefused(t *testing.T) {
	sched, cs, _, ss := threeNodeNet(t, netsim.LinkConfig{MTU: 1500})
	recv := &sink{}
	ss.RegisterProto(ProtoUDP, recv)
	for _, n := range []int{maxPayload + 1, maxPayload} {
		err := cs.SendSegment(ProtoUDP, cs.Addr(0), ss.Addr(0), segment(cs, make([]byte, n)))
		if (err == nil) != (n == maxPayload) {
			t.Fatalf("%d-byte payload: err %v", n, err)
		}
		sched.Run()
	}
	if len(recv.pkts) != 1 || len(recv.pkts[0].Payload) != maxPayload {
		t.Fatalf("delivered %d datagrams, want the one of %d bytes", len(recv.pkts), maxPayload)
	}
	noFramesOut(t, cs)
}

func TestTTLExpiry(t *testing.T) {
	// Chain of routers longer than the TTL: packet must die en route.
	sched := sim.NewScheduler(1)
	net := netsim.New(sched)
	const hops = 5
	nodes := make([]*netsim.Node, hops+2)
	stacks := make([]*Stack, hops+2)
	for i := range nodes {
		nodes[i] = net.AddNode(netsim.NodeConfig{})
		stacks[i] = NewStack(nodes[i], sched)
	}
	for i := 0; i < len(nodes)-1; i++ {
		net.Connect(nodes[i], nodes[i+1], netsim.LinkConfig{})
	}
	dstAddr := inet.MustParseAddr("10.9.0.1")
	for i, s := range stacks {
		s.SetForwarding(true)
		if i < len(nodes)-1 {
			// Everyone routes "forward" along the chain; node 0's iface 0
			// points at node 1, middle nodes' iface 1 points onward.
			out := 0
			if i > 0 {
				out = 1
			}
			s.Routes().AddDefault(out)
		}
	}
	stacks[len(stacks)-1].SetAddr(0, dstAddr)
	recv := &sink{}
	stacks[len(stacks)-1].RegisterProto(ProtoUDP, recv)

	// Forge a datagram with TTL 3, fewer than the 6 hops needed, and put it
	// on node 0's wire as a frame.
	p := &Packet{Header: Header{TTL: 3, Proto: ProtoUDP, Src: 1, Dst: dstAddr, ID: 7}, Payload: []byte("doomed")}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	nodes[0].SendFrame(0, nodes[0].Pool().GetCopy(b))
	sched.Run()
	if len(recv.pkts) != 0 {
		t.Fatal("packet survived past its TTL")
	}
	var expired uint64
	for i, s := range stacks {
		expired += s.Stats().TTLExceeded
		// Expiry is a silent drop: no router originates a reply.
		if n := s.Stats().Originated; n != 0 {
			t.Errorf("stack %d originated %d datagrams, want 0", i, n)
		}
	}
	if expired != 1 {
		t.Errorf("TTLExceeded total = %d, want 1", expired)
	}
}

func TestPathMTUFragmentationEndToEnd(t *testing.T) {
	// Second hop has a smaller MTU; the router must fragment and the
	// destination must reassemble.
	sched := sim.NewScheduler(1)
	net := netsim.New(sched)
	c := net.AddNode(netsim.NodeConfig{Name: "c"})
	r := net.AddNode(netsim.NodeConfig{Name: "r"})
	sv := net.AddNode(netsim.NodeConfig{Name: "s"})
	net.Connect(c, r, netsim.LinkConfig{MTU: 1500})
	net.Connect(r, sv, netsim.LinkConfig{MTU: 576})
	cs, rs, ss := NewStack(c, sched), NewStack(r, sched), NewStack(sv, sched)
	cs.SetAddr(0, inet.MustParseAddr("10.1.0.2"))
	rs.SetAddr(0, inet.MustParseAddr("10.1.0.1"))
	rs.SetAddr(1, inet.MustParseAddr("10.2.0.1"))
	ss.SetAddr(0, inet.MustParseAddr("10.2.0.2"))
	cs.Routes().AddDefault(0)
	rs.Routes().Add(Route{Dst: MustParsePrefix("10.2.0.0/24"), Ifindex: 1})
	rs.Routes().Add(Route{Dst: MustParsePrefix("10.1.0.0/24"), Ifindex: 0})
	rs.SetForwarding(true)
	recv := &sink{}
	ss.RegisterProto(ProtoUDP, recv)

	payload := make([]byte, 1400)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := cs.Send(ProtoUDP, 0, inet.MustParseAddr("10.2.0.2"), payload); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(recv.pkts) != 1 {
		t.Fatalf("delivered %d datagrams, want 1 reassembled", len(recv.pkts))
	}
	got := recv.pkts[0].Payload
	if len(got) != len(payload) {
		t.Fatalf("payload length %d, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
	if st := ss.Reassembly(); st != (ReassemblyStats{}) {
		t.Fatalf("reassembler gave up on something: %+v", st)
	}

	// A pooled frame too big for the first hop is cut by the sender, which
	// releases it as soon as the fragments are out.
	big := make([]byte, 3000)
	for i := range big {
		big[i] = byte(i * 13)
	}
	if err := cs.SendSegment(ProtoUDP, cs.Addr(0), inet.MustParseAddr("10.2.0.2"), segment(cs, big)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(recv.pkts) != 2 || !bytes.Equal(recv.pkts[1].Payload, big) {
		t.Fatalf("SendSegment's fragments did not reassemble (%d datagrams)", len(recv.pkts))
	}
	noFramesOut(t, cs)
}

// TestEncapTunnelsOptionsVerbatim: an inner datagram that carries an IP
// option crosses a tunnelling router as it arrived, option included, with
// only its TTL decremented (RFC 2003 §3) — whole, and when its outer
// datagram has to be fragmented on the way.
func TestEncapTunnelsOptionsVerbatim(t *testing.T) {
	sched, _, rs, ss := threeNodeNet(t, netsim.LinkConfig{MTU: 1500})
	host := ss.Addr(0)
	rs.SetForwardHook(ForwardFunc(func(p *Packet) bool {
		if err := rs.SendEncap(p, host); err != nil {
			t.Fatal(err)
		}
		return true
	}))
	var got [][]byte
	ss.RegisterProto(ProtoIPIP, handlerFunc(func(outer *Packet) {
		got = append(got, append([]byte(nil), outer.Payload...))
	}))
	for _, n := range []int{32, 1480} {
		inner := make([]byte, HeaderLen+4+n)
		(&Header{TTL: 9, Proto: ProtoUDP, ID: 5, Src: inet.MustParseAddr("10.1.0.2"), Dst: inet.MustParseAddr("192.20.225.20")}).putHeader(inner, len(inner))
		inner[0] = 0x46                             // IHL 6: one option word
		copy(inner[HeaderLen:], []byte{1, 1, 1, 0}) // NOP NOP NOP, end of list
		inner[10], inner[11] = 0, 0
		sum := Checksum(inner[:HeaderLen+4])
		inner[10], inner[11] = byte(sum>>8), byte(sum)
		for i := range n {
			inner[HeaderLen+4+i] = byte(i * 7)
		}
		rs.HandleFrame(0, inner)
		sched.Run()
		want := append([]byte(nil), inner...)
		PatchTTL(want, 8)
		if len(got) != 1 || !bytes.Equal(got[0], want) {
			t.Fatalf("%d-byte payload: the tunnel delivered %d datagrams, want the inner datagram as it arrived", n, len(got))
		}
		got = got[:0]
	}
	if st := ss.Reassembly(); st != (ReassemblyStats{}) {
		t.Fatalf("reassembler gave up on something: %+v", st)
	}
	noFramesOut(t, rs)
}

func TestForwardHookConsumes(t *testing.T) {
	sched, cs, rs, ss := threeNodeNet(t, netsim.LinkConfig{})
	recv := &sink{}
	ss.RegisterProto(ProtoUDP, recv)
	var hooked []*Packet
	rs.SetForwardHook(ForwardFunc(func(p *Packet) bool {
		if p.Proto == ProtoUDP {
			hooked = append(hooked, p)
			return true
		}
		return false
	}))
	_ = cs.Send(ProtoUDP, 0, inet.MustParseAddr("10.2.0.2"), []byte("grab"))
	sched.Run()
	if len(hooked) != 1 {
		t.Fatalf("hook saw %d packets, want 1", len(hooked))
	}
	if len(recv.pkts) != 0 {
		t.Fatal("consumed packet was still forwarded")
	}
}

func TestVirtualHostLocalDelivery(t *testing.T) {
	// AddLocalAddr makes the stack accept packets for a foreign address —
	// the basis of HydraNet virtual hosts.
	sched, cs, rs, _ := threeNodeNet(t, netsim.LinkConfig{})
	vhost := inet.MustParseAddr("192.20.225.20")
	recv := &sink{}
	rs.AddLocalAddr(vhost)
	rs.RegisterProto(ProtoUDP, recv)
	_ = cs.Send(ProtoUDP, 0, vhost, []byte("to vhost"))
	sched.Run()
	if len(recv.pkts) != 1 {
		t.Fatal("virtual-host address not delivered locally")
	}
	rs.RemoveLocalAddr(vhost)
	if rs.IsLocal(vhost) {
		t.Fatal("RemoveLocalAddr did not withdraw address")
	}
}

func TestCrashedNodeDeliversNothing(t *testing.T) {
	sched, cs, _, ss := threeNodeNet(t, netsim.LinkConfig{Delay: time.Millisecond})
	recv := &sink{}
	ss.RegisterProto(ProtoUDP, recv)
	ss.Node().Crash()
	_ = cs.Send(ProtoUDP, 0, inet.MustParseAddr("10.2.0.2"), []byte("x"))
	sched.Run()
	if len(recv.pkts) != 0 {
		t.Fatal("crashed server received a packet")
	}
}

func TestStatsCounting(t *testing.T) {
	sched, cs, rs, ss := threeNodeNet(t, netsim.LinkConfig{})
	recv := &sink{}
	ss.RegisterProto(ProtoUDP, recv)
	for i := 0; i < 3; i++ {
		_ = cs.Send(ProtoUDP, 0, inet.MustParseAddr("10.2.0.2"), []byte{byte(i)})
	}
	sched.Run()
	if got := rs.Stats().Forwarded; got != 3 {
		t.Errorf("router Forwarded = %d, want 3", got)
	}
	if got := ss.Stats().Delivered; got != 3 {
		t.Errorf("server Delivered = %d, want 3", got)
	}
	if got := cs.Stats().Originated; got != 3 {
		t.Errorf("client Originated = %d, want 3", got)
	}
}

func TestNoProtoHandlerCounted(t *testing.T) {
	sched, cs, _, ss := threeNodeNet(t, netsim.LinkConfig{})
	_ = cs.Send(ProtoTCP, 0, inet.MustParseAddr("10.2.0.2"), []byte("?"))
	sched.Run()
	if got := ss.Stats().NoProto; got != 1 {
		t.Errorf("NoProto = %d, want 1", got)
	}
}

// TestLocalAddrTable steps one router's set of local addresses through
// AddLocalAddr and RemoveLocalAddr, over its two interface addresses and
// more virtual hosts than the set holds inline, checking IsLocal for every
// address after each step. It is a set: adding twice needs one removal, and
// a removal withdraws an interface's address too (the host server never
// asks for that) while the interface keeps it.
func TestLocalAddrTable(t *testing.T) {
	_, _, rs, _ := threeNodeNet(t, netsim.LinkConfig{})
	if0, if1 := inet.MustParseAddr("10.1.0.1"), inet.MustParseAddr("10.2.0.1")
	v := func(i byte) Addr { return AddrFrom4(192, 20, 225, i) }
	all := []Addr{if0, if1, v(1), v(2), v(3), v(4), v(5), v(6)}
	for i, st := range []struct {
		add   bool
		a     Addr
		local []Addr
	}{
		{true, v(1), []Addr{if0, if1, v(1)}},
		{true, v(1), []Addr{if0, if1, v(1)}},
		{true, if0, []Addr{if0, if1, v(1)}},
		{true, v(2), []Addr{if0, if1, v(1), v(2)}},
		{true, v(3), []Addr{if0, if1, v(1), v(2), v(3)}},
		{true, v(4), []Addr{if0, if1, v(1), v(2), v(3), v(4)}},
		{true, v(5), []Addr{if0, if1, v(1), v(2), v(3), v(4), v(5)}},
		{false, v(3), []Addr{if0, if1, v(1), v(2), v(4), v(5)}},
		{false, v(1), []Addr{if0, if1, v(2), v(4), v(5)}},
		{false, v(6), []Addr{if0, if1, v(2), v(4), v(5)}},
		{false, if1, []Addr{if0, v(2), v(4), v(5)}},
		{true, if1, []Addr{if0, if1, v(2), v(4), v(5)}},
	} {
		if st.add {
			rs.AddLocalAddr(st.a)
		} else {
			rs.RemoveLocalAddr(st.a)
		}
		for _, a := range all {
			if got, want := rs.IsLocal(a), slices.Contains(st.local, a); got != want {
				t.Errorf("step %d (add %v %s): IsLocal(%s) = %v, want %v", i, st.add, st.a, a, got, want)
			}
		}
		if rs.Addr(1) != if1 || !rs.IsInterfaceAddr(if1) {
			t.Errorf("step %d: interface 1's address is %s, want %s", i, rs.Addr(1), if1)
		}
	}
}
