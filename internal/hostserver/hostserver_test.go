package hostserver

import (
	"testing"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/sim"
)

type sink struct{ pkts []*ipv4.Packet }

// DeliverIP keeps a copy: p is the host server's scratch packet and its
// payload is the fabric's frame, both valid for the call only.
func (s *sink) DeliverIP(p *ipv4.Packet) {
	c := *p
	c.Payload = append([]byte(nil), p.Payload...)
	s.pkts = append(s.pkts, &c)
}

// rig: sender — hostserver, directly linked.
func rig(t *testing.T) (*sim.Scheduler, *ipv4.Stack, *HostServer, ipv4.Addr) {
	t.Helper()
	sched := sim.NewScheduler(31)
	nw := netsim.New(sched)
	a := nw.AddNode(netsim.NodeConfig{Name: "sender"})
	b := nw.AddNode(netsim.NodeConfig{Name: "hs"})
	nw.Connect(a, b, netsim.LinkConfig{Delay: time.Millisecond})
	sa := ipv4.NewStack(a, sched)
	sb := ipv4.NewStack(b, sched)
	sa.SetAddr(0, inet.MustParseAddr("10.0.0.1"))
	hsAddr := inet.MustParseAddr("10.0.0.2")
	sb.SetAddr(0, hsAddr)
	sa.Routes().AddDefault(0)
	sb.Routes().AddDefault(0)
	return sched, sa, New(sb), hsAddr
}

// tunnel builds an IP-in-IP frame around inner and sends it to the host
// server.
func tunnel(t *testing.T, sa *ipv4.Stack, hs ipv4.Addr, inner *ipv4.Packet) {
	t.Helper()
	body, err := inner.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Send(ipv4.ProtoIPIP, 0, hs, body); err != nil {
		t.Fatal(err)
	}
}

func TestVHostLifecycle(t *testing.T) {
	_, _, hs, _ := rig(t)
	vhost := inet.MustParseAddr("192.20.225.20")
	if hs.HasVHost(vhost) {
		t.Fatal("fresh host server has a vhost")
	}
	hs.VHost(vhost)
	hs.VHost(vhost) // second service on the same virtual host
	if !hs.HasVHost(vhost) || !hs.IP().IsLocal(vhost) {
		t.Fatal("vhost not installed")
	}
	hs.ReleaseVHost(vhost)
	if !hs.HasVHost(vhost) {
		t.Fatal("refcounted vhost removed too early")
	}
	hs.ReleaseVHost(vhost)
	if hs.HasVHost(vhost) || hs.IP().IsLocal(vhost) {
		t.Fatal("vhost not removed after last release")
	}
	hs.ReleaseVHost(vhost) // extra release must be a no-op
	if len(hs.VHosts()) != 0 {
		t.Fatal("VHosts not empty")
	}
}

func TestTunnelDecapToVHost(t *testing.T) {
	sched, sa, hs, hsAddr := rig(t)
	vhost := inet.MustParseAddr("192.20.225.20")
	hs.VHost(vhost)
	recv := &sink{}
	hs.IP().RegisterProto(ipv4.ProtoUDP, recv)

	inner := &ipv4.Packet{
		Header:  ipv4.Header{TTL: 60, Proto: ipv4.ProtoUDP, Src: inet.MustParseAddr("1.2.3.4"), Dst: vhost, ID: 9},
		Payload: []byte("tunneled payload"),
	}
	tunnel(t, sa, hsAddr, inner)
	sched.Run()
	if len(recv.pkts) != 1 {
		t.Fatalf("delivered %d inner packets, want 1", len(recv.pkts))
	}
	got := recv.pkts[0]
	if got.Dst != vhost || got.Src != inet.MustParseAddr("1.2.3.4") {
		t.Errorf("inner header corrupted: src=%s dst=%s", got.Src, got.Dst)
	}
	if string(got.Payload) != "tunneled payload" {
		t.Errorf("payload %q", got.Payload)
	}
	if d, _, _ := hs.Stats(); d != 1 {
		t.Errorf("decapsulated = %d, want 1", d)
	}
}

func TestTunnelForUnknownVHostDropped(t *testing.T) {
	sched, sa, hs, hsAddr := rig(t)
	recv := &sink{}
	hs.IP().RegisterProto(ipv4.ProtoUDP, recv)
	inner := &ipv4.Packet{
		Header:  ipv4.Header{TTL: 60, Proto: ipv4.ProtoUDP, Src: 1, Dst: inet.MustParseAddr("9.9.9.9"), ID: 1},
		Payload: []byte("nope"),
	}
	tunnel(t, sa, hsAddr, inner)
	sched.Run()
	if len(recv.pkts) != 0 {
		t.Fatal("packet for unknown virtual host delivered")
	}
	if _, _, nv := hs.Stats(); nv != 1 {
		t.Errorf("notVirtual = %d, want 1", nv)
	}
}

func TestMalformedTunnelDropped(t *testing.T) {
	sched, sa, hs, hsAddr := rig(t)
	if err := sa.Send(ipv4.ProtoIPIP, 0, hsAddr, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if _, bad, _ := hs.Stats(); bad != 1 {
		t.Errorf("badTunnel = %d, want 1", bad)
	}
}

func TestOwnAddressSurvivesVHostRelease(t *testing.T) {
	// A replica may run on the service's origin host (paper Figure 1):
	// installing and releasing a virtual host for the machine's own
	// interface address must not withdraw that address.
	_, _, hs, hsAddr := rig(t)
	hs.VHost(hsAddr)
	hs.ReleaseVHost(hsAddr)
	if !hs.IP().IsLocal(hsAddr) {
		t.Fatal("vhost release withdrew the host's own interface address")
	}
}
