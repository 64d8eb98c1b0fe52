package redirector

import (
	"slices"
	"strings"
	"testing"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/obs"
	"hydranet/internal/sim"
)

type ipipSink struct {
	inner []*ipv4.Packet
	outer []*ipv4.Packet
	ip    *ipv4.Stack
}

// DeliverIP keeps a copy: p is the stack's scratch packet and its payload is
// the fabric's frame, both valid for the call only.
func (s *ipipSink) DeliverIP(p *ipv4.Packet) {
	c := *p
	c.Payload = append([]byte(nil), p.Payload...)
	s.outer = append(s.outer, &c)
	if in, err := ipv4.Unmarshal(c.Payload); err == nil {
		s.inner = append(s.inner, in)
	}
}

// rig builds: client — rd — {h1, h2} and returns the pieces. h1/h2 record
// tunneled packets.
func rig(t *testing.T) (*sim.Scheduler, *ipv4.Stack, *Redirector, *ipipSink, *ipipSink, [2]ipv4.Addr) {
	t.Helper()
	sched := sim.NewScheduler(41)
	nw := netsim.New(sched)
	cl := nw.AddNode(netsim.NodeConfig{Name: "client"})
	rt := nw.AddNode(netsim.NodeConfig{Name: "rd"})
	h1 := nw.AddNode(netsim.NodeConfig{Name: "h1"})
	h2 := nw.AddNode(netsim.NodeConfig{Name: "h2"})
	link := netsim.LinkConfig{Delay: time.Millisecond}
	nw.Connect(cl, rt, link)
	nw.Connect(h1, rt, link)
	nw.Connect(h2, rt, link)

	cs := ipv4.NewStack(cl, sched)
	rs := ipv4.NewStack(rt, sched)
	s1 := ipv4.NewStack(h1, sched)
	s2 := ipv4.NewStack(h2, sched)

	cs.SetAddr(0, inet.MustParseAddr("10.1.0.2"))
	rs.SetAddr(0, inet.MustParseAddr("10.1.0.1"))
	rs.SetAddr(1, inet.MustParseAddr("10.2.0.1"))
	rs.SetAddr(2, inet.MustParseAddr("10.3.0.1"))
	a1, a2 := inet.MustParseAddr("10.2.0.2"), inet.MustParseAddr("10.3.0.2")
	s1.SetAddr(0, a1)
	s2.SetAddr(0, a2)

	cs.Routes().AddDefault(0)
	s1.Routes().AddDefault(0)
	s2.Routes().AddDefault(0)
	rs.Routes().Add(ipv4.Route{Dst: ipv4.MustParsePrefix("10.1.0.0/24"), Ifindex: 0})
	rs.Routes().Add(ipv4.Route{Dst: ipv4.MustParsePrefix("10.2.0.0/24"), Ifindex: 1})
	rs.Routes().Add(ipv4.Route{Dst: ipv4.MustParsePrefix("10.3.0.0/24"), Ifindex: 2})
	rs.SetForwarding(true)

	rd := New(rs)
	k1, k2 := &ipipSink{ip: s1}, &ipipSink{ip: s2}
	s1.RegisterProto(ipv4.ProtoIPIP, k1)
	s2.RegisterProto(ipv4.ProtoIPIP, k2)
	return sched, cs, rd, k1, k2, [2]ipv4.Addr{a1, a2}
}

// udpTo builds a minimal UDP payload with the given destination port.
func udpTo(dstPort uint16) []byte {
	b := make([]byte, 12)
	b[2] = byte(dstPort >> 8)
	b[3] = byte(dstPort)
	b[4] = 0
	b[5] = 12
	return b
}

var svcAddr = inet.MustParseAddr("192.20.225.20")

func TestFTMulticastToAllReplicas(t *testing.T) {
	sched, cs, rd, k1, k2, hosts := rig(t)
	rd.SetFTReplicas(ServiceKey{Addr: svcAddr, Port: 80}, hosts[0], []ipv4.Addr{hosts[1]})
	if err := cs.Send(ipv4.ProtoUDP, 0, svcAddr, udpTo(80)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(k1.inner) != 1 || len(k2.inner) != 1 {
		t.Fatalf("copies: primary=%d backup=%d, want 1 each", len(k1.inner), len(k2.inner))
	}
	in := k1.inner[0]
	if in.Dst != svcAddr {
		t.Errorf("inner dst = %s, want service address", in.Dst)
	}
	if in.Src != inet.MustParseAddr("10.1.0.2") {
		t.Errorf("inner src = %s, want client address", in.Src)
	}
	st := rd.Stats()
	if st.Multicast != 1 || st.MulticastCopies != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestTunnelErrorCountedAndPublished: a chain member the redirector has no
// route to costs its copy, not the others: the copy is counted as a tunnel
// error and published with the member and the routing error.
func TestTunnelErrorCountedAndPublished(t *testing.T) {
	sched, cs, rd, k1, _, hosts := rig(t)
	var events []obs.Event
	bus := new(obs.Bus)
	bus.Init(sched)
	bus.Subscribe(func(e obs.Event) { events = append(events, e) }, obs.KindTunnelError)
	rd.SetBus(bus)
	lost := inet.MustParseAddr("10.9.0.2") // no route on rd
	rd.SetFTReplicas(ServiceKey{Addr: svcAddr, Port: 80}, hosts[0], []ipv4.Addr{lost})
	_ = cs.Send(ipv4.ProtoUDP, 0, svcAddr, udpTo(80))
	sched.Run()
	if len(k1.inner) != 1 {
		t.Errorf("the routed primary got %d copies, want 1", len(k1.inner))
	}
	if st := rd.Stats(); st.TunnelErrors != 1 || st.MulticastCopies != 2 {
		t.Errorf("stats = %+v, want 1 tunnel error among 2 copies", st)
	}
	if len(events) != 1 || events[0].Host != lost || events[0].Node != "rd" || !strings.Contains(events[0].Cause, "no route") {
		t.Errorf("tunnel-error events = %+v, want one naming %s and the missing route", events, lost)
	}
}

func TestScalingPicksNearest(t *testing.T) {
	sched, cs, rd, k1, k2, hosts := rig(t)
	key := ServiceKey{Addr: svcAddr, Port: 80}
	rd.AddTarget(key, Target{Host: hosts[1], Metric: 7})
	rd.AddTarget(key, Target{Host: hosts[0], Metric: 2})
	_ = cs.Send(ipv4.ProtoUDP, 0, svcAddr, udpTo(80))
	sched.Run()
	if len(k1.inner) != 1 || len(k2.inner) != 0 {
		t.Fatalf("nearest selection wrong: h1=%d h2=%d", len(k1.inner), len(k2.inner))
	}
}

func TestNonMatchingPortPassesThrough(t *testing.T) {
	sched, cs, rd, k1, k2, hosts := rig(t)
	rd.SetFTReplicas(ServiceKey{Addr: svcAddr, Port: 80}, hosts[0], nil)
	// Port 23 is not in the table; dst host does not exist → router drops,
	// but crucially nothing is tunneled.
	_ = cs.Send(ipv4.ProtoUDP, 0, svcAddr, udpTo(23))
	sched.Run()
	if len(k1.outer)+len(k2.outer) != 0 {
		t.Fatal("unmatched port was tunneled")
	}
	if rd.Stats().PassedThrough == 0 {
		t.Error("pass-through not counted")
	}
}

func TestNonTransportProtocolIgnored(t *testing.T) {
	sched, cs, rd, k1, _, hosts := rig(t)
	rd.SetFTReplicas(ServiceKey{Addr: svcAddr, Port: 80}, hosts[0], nil)
	_ = cs.Send(201, 0, svcAddr, []byte{0, 0, 0, 80}) // bogus protocol
	sched.Run()
	if len(k1.outer) != 0 {
		t.Fatal("non-TCP/UDP packet was redirected")
	}
}

func TestInstallRemoveLookup(t *testing.T) {
	_, _, rd, _, _, hosts := rig(t)
	key := ServiceKey{Addr: svcAddr, Port: 443}
	rd.SetFTReplicas(key, hosts[0], nil)
	if rd.Lookup(key) == nil {
		t.Fatal("Lookup after SetFTReplicas failed")
	}
	if n := rd.NumServices(); n != 1 {
		t.Fatalf("NumServices = %d", n)
	}
	rd.Remove(key)
	if rd.Lookup(key) != nil {
		t.Fatal("entry survives Remove")
	}
}

// TestSetFTReplicasCopiesChain: the entry keeps its own copy of the chain —
// the daemon passes its decode scratch, with room to spare, as backups and
// reuses it — and re-setting a chain of the same length allocates nothing.
func TestSetFTReplicasCopiesChain(t *testing.T) {
	_, _, rd, _, _, hosts := rig(t)
	key := ServiceKey{Addr: svcAddr, Port: 80}
	backups := append(make([]ipv4.Addr, 0, 4), hosts[1], svcAddr)
	rd.SetFTReplicas(key, hosts[0], backups)
	backups[0], backups[1] = svcAddr, hosts[0]
	if e, want := rd.Lookup(key), []ipv4.Addr{hosts[0], hosts[1], svcAddr}; !slices.Equal(e.Chain, want) {
		t.Fatalf("chain after the caller reused backups = %v, want %v", e.Chain, want)
	}
	if n := testing.AllocsPerRun(10, func() { rd.SetFTReplicas(key, hosts[1], backups) }); n != 0 {
		t.Errorf("re-setting a chain of the same length allocates %v objects, want 0", n)
	}
	if e, want := rd.Lookup(key), []ipv4.Addr{hosts[1], svcAddr, hosts[0]}; !slices.Equal(e.Chain, want) {
		t.Errorf("chain = %v, want %v", e.Chain, want)
	}
}

func TestTunnelEncapsulationWellFormed(t *testing.T) {
	sched, cs, rd, k1, _, hosts := rig(t)
	rd.SetFTReplicas(ServiceKey{Addr: svcAddr, Port: 80}, hosts[0], nil)
	_ = cs.Send(ipv4.ProtoUDP, 0, svcAddr, udpTo(80))
	sched.Run()
	if len(k1.outer) != 1 {
		t.Fatal("no tunneled packet")
	}
	outer := k1.outer[0]
	if outer.Proto != ipv4.ProtoIPIP {
		t.Errorf("outer proto = %d", outer.Proto)
	}
	if outer.Dst != hosts[0] {
		t.Errorf("outer dst = %s, want host server", outer.Dst)
	}
	if outer.Src == 0 {
		t.Error("outer src unset")
	}
	inner := k1.inner[0]
	// The inner TTL was decremented once by the redirector's forward path.
	if inner.TTL != ipv4.DefaultTTL-1 {
		t.Errorf("inner TTL = %d, want %d", inner.TTL, ipv4.DefaultTTL-1)
	}
}

// TestTableInline: a Redirector holds its first two rows and its first entry,
// so installing two services' chains and removing them allocates one object,
// the second entry.
func TestTableInline(t *testing.T) {
	_, _, rd, _, _, hosts := rig(t)
	keys := [2]ServiceKey{{Addr: svcAddr, Port: 80}, {Addr: svcAddr, Port: 443}}
	backups := hosts[1:]
	var r Redirector
	allocs := testing.AllocsPerRun(10, func() {
		r = Redirector{}
		r.Init(rd.IP())
		for _, k := range keys {
			r.SetFTReplicas(k, hosts[0], backups)
		}
		for _, k := range keys {
			r.Remove(k)
		}
	})
	if allocs != 1 {
		t.Errorf("Init, two chains installed and removed allocate %v objects, want 1", allocs)
	}
}
