package hydranet

import (
	"bytes"
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/ipv4"
	"hydranet/internal/tcp"
)

// TestMultiHopRouting: client — r1 — r2 — rd — server, with the redirector
// three hops from the client. AutoRoute must chain the path, and the
// default-route-toward-redirector rule must work across plain routers.
func TestMultiHopRouting(t *testing.T) {
	net := New(Config{Seed: 121})
	client := net.AddHost("client", HostConfig{})
	r1 := net.AddRouter("r1", HostConfig{})
	r2 := net.AddRouter("r2", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	s0 := net.AddHost("s0", HostConfig{})
	s1 := net.AddHost("s1", HostConfig{})
	link := LinkConfig{Rate: 10_000_000, Delay: 2 * time.Millisecond}
	net.Link(client, r1, link)
	net.Link(r1, r2, link)
	net.Link(r2, rd.Host, link)
	net.Link(s0, rd.Host, link)
	net.Link(s1, rd.Host, link)
	net.AutoRoute()

	svc := ServiceID{Addr: MustAddr("192.20.225.20"), Port: 80}
	ftsvc, err := net.DeployFT(svc, rd, []*Host{s0, s1}, FTOptions{}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(svc)
	echoed := collect(conn)
	payload := bytes.Repeat([]byte("far"), 10_000)
	app.Source(conn, payload, false)
	net.RunFor(30 * time.Second)
	if !bytes.Equal(*echoed, payload) {
		t.Fatalf("multi-hop echo: %d of %d bytes", len(*echoed), len(payload))
	}
	// Failover still works across the multi-hop path.
	ftsvc.CrashPrimary()
	conn.Write([]byte("|post"))
	net.RunFor(2 * time.Minute)
	want := append(append([]byte(nil), payload...), []byte("|post")...)
	if !bytes.Equal(*echoed, want) {
		t.Fatalf("multi-hop failover: %d of %d bytes", len(*echoed), len(want))
	}
	// The plain routers really carried the traffic.
	if r1.IP().Stats().Forwarded == 0 || r2.IP().Stats().Forwarded == 0 {
		t.Error("intermediate routers forwarded nothing")
	}
}

// tunnelTap sits in front of a host server's IP-in-IP handler and copies
// every inner datagram's transport bytes before passing the packet on.
type tunnelTap struct {
	next ipv4.ProtocolHandler
	segs [][]byte
}

func (tt *tunnelTap) DeliverIP(outer *ipv4.Packet) {
	if inner, err := ipv4.Unmarshal(outer.Payload); err == nil {
		tt.segs = append(tt.segs, append([]byte(nil), inner.Payload...))
	}
	tt.next.DeliverIP(outer)
}

// TestCorruptSegmentVerifiedOnlyAtEndpoints: the TCP checksum is computed
// once, when the sender marshals the segment, and verified once, by each
// receiving stack. A segment whose checksum is wrong crosses a forwarding
// router and the redirector's tunnel to both replicas byte for byte, and
// only the replicas' TCP stacks count it as bad.
func TestCorruptSegmentVerifiedOnlyAtEndpoints(t *testing.T) {
	net := New(Config{Seed: 125})
	client := net.AddHost("client", HostConfig{})
	r := net.AddRouter("r", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	s0 := net.AddHost("s0", HostConfig{})
	s1 := net.AddHost("s1", HostConfig{})
	link := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Link(client, r, link)
	net.Link(r, rd.Host, link)
	net.Link(s0, rd.Host, link)
	net.Link(s1, rd.Host, link)
	net.AutoRoute()
	svc := ServiceID{Addr: MustAddr("192.20.225.20"), Port: 80}
	if _, err := net.DeployFT(svc, rd, []*Host{s0, s1}, FTOptions{}, echoAccept()); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	taps := []*tunnelTap{{next: s0.HostServer()}, {next: s1.HostServer()}}
	s0.IP().RegisterProto(ipv4.ProtoIPIP, taps[0])
	s1.IP().RegisterProto(ipv4.ProtoIPIP, taps[1])

	seg := &tcp.Segment{SrcPort: 40000, DstPort: svc.Port, Seq: 1, Flags: tcp.FlagACK, Window: 8192, Payload: []byte("corrupt me")}
	sent := seg.Marshal(client.Addr(), svc.Addr)
	sent[len(sent)-1] ^= 0x20 // the checksum no longer covers the payload
	hosts := []*Host{client, r, rd.Host, s0, s1}
	before := make([]tcp.StackStats, len(hosts))
	for i, h := range hosts {
		before[i] = h.TCP().Stats()
	}
	if err := client.IP().Send(ipv4.ProtoTCP, client.Addr(), svc.Addr, append([]byte(nil), sent...)); err != nil {
		t.Fatal(err)
	}
	net.RunFor(time.Second)

	for _, tt := range taps {
		if len(tt.segs) != 1 || !bytes.Equal(tt.segs[0], sent) {
			t.Fatalf("tunnel delivered %d segments, want the %d bytes sent unchanged: % x", len(tt.segs), len(sent), tt.segs)
		}
	}
	if r.IP().Stats().Forwarded == 0 || rd.Table().Stats().Multicast != 1 {
		t.Fatalf("the segment did not cross the router (%d forwarded) and the redirector (%d multicasts)",
			r.IP().Stats().Forwarded, rd.Table().Stats().Multicast)
	}
	for i, h := range hosts {
		want := uint64(0)
		if h == s0 || h == s1 {
			want = 1
		}
		if got := h.TCP().Stats().BadSegments - before[i].BadSegments; got != want {
			t.Errorf("%s counted %d bad segments, want %d", h.Name(), got, want)
		}
		if got := h.IP().Stats().BadHeader; got != 0 {
			t.Errorf("%s counted %d bad IP headers, want 0", h.Name(), got)
		}
	}
}

// TestHostServerSharedVirtualHost: two services on one virtual host, one
// FT and one scaling, on overlapping host sets.
func TestHostServerSharedVirtualHost(t *testing.T) {
	net, client, rd, replicas, _ := ftTopology(Config{Seed: 122}, 2, LinkConfig{})
	vaddr := MustAddr("192.20.225.20")
	ftSvc := ServiceID{Addr: vaddr, Port: 80}
	scaleSvc := ServiceID{Addr: vaddr, Port: 8080}
	if _, err := net.DeployFT(ftSvc, rd, replicas, FTOptions{}, echoAccept()); err != nil {
		t.Fatal(err)
	}
	if err := net.DeployScale(scaleSvc, rd, []ScaleTarget{{Host: replicas[1], Metric: 1}},
		func(c *Conn) { app.Source(c, []byte("scaled"), true) }); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	c1, _ := client.Dial(ftSvc)
	e1 := collect(c1)
	app.Source(c1, []byte("replicated"), false)
	c2, _ := client.Dial(scaleSvc)
	e2 := collect(c2)
	app.Source(c2, []byte("x"), false)
	net.RunFor(10 * time.Second)
	if string(*e1) != "replicated" || string(*e2) != "scaled" {
		t.Fatalf("echoes: %q / %q", *e1, *e2)
	}
	// The shared virtual host is reference-counted: removing one service
	// must not strand the other.
	replicas[1].Daemon(rd).Leave(scaleSvc)
	net.Settle()
	c3, _ := client.Dial(ftSvc)
	e3 := collect(c3)
	app.Source(c3, []byte("still here"), false)
	net.RunFor(10 * time.Second)
	if string(*e3) != "still here" {
		t.Fatalf("FT service broken after scaling service left: %q", *e3)
	}
}

// TestLinkAddrExplicitAddressing: explicit addresses survive AutoRoute and
// carry traffic between real hosts.
func TestLinkAddrExplicitAddressing(t *testing.T) {
	net := New(Config{Seed: 123})
	a := net.AddHost("a", HostConfig{})
	r := net.AddRouter("r", HostConfig{})
	b := net.AddHost("b", HostConfig{})
	net.LinkAddr(a, r, LinkConfig{}, MustAddr("172.16.1.10"), MustAddr("172.16.1.1"))
	net.LinkAddr(b, r, LinkConfig{}, MustAddr("172.16.2.10"), MustAddr("172.16.2.1"))
	net.AutoRoute()
	if a.Addr() != MustAddr("172.16.1.10") || b.Addr() != MustAddr("172.16.2.10") {
		t.Fatalf("addrs: %s / %s", a.Addr(), b.Addr())
	}
	l, _ := b.Listen(0, 7)
	l.SetAcceptFunc(func(c *Conn) { app.Echo(c) })
	conn, err := a.DialEndpoint(Endpoint{Addr: b.Addr(), Port: 7})
	if err != nil {
		t.Fatal(err)
	}
	echoed := collect(conn)
	app.Source(conn, []byte("explicit"), false)
	net.RunFor(5 * time.Second)
	if string(*echoed) != "explicit" {
		t.Fatalf("echo = %q", *echoed)
	}
}
