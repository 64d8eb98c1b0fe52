package hydranet_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/ipv4"
	"hydranet/internal/redirector"
	"hydranet/internal/tcp"
	"hydranet/internal/testbed"
	"hydranet/internal/udp"
)

// TestMultiHopRouting: far — r1 — r2 — rd — server, with the redirector
// three hops from the far client. AutoRoute must chain the path, and the
// default-route-toward-redirector rule must work across plain routers.
func TestMultiHopRouting(t *testing.T) {
	var far, r1, r2 *hydranet.Host
	var echoed *testbed.Stream
	row(t, testbed.Scenario{Seed: 121, Replicas: 2, Send: []byte("near"), Setup: func(r *testbed.Run) {
		far, r1, r2 = r.Net.AddHost("far", hydranet.HostConfig{}), r.Net.AddRouter("r1", hydranet.HostConfig{}), r.Net.AddRouter("r2", hydranet.HostConfig{})
		link := hydranet.LinkConfig{Rate: 10_000_000, Delay: 2 * time.Millisecond}
		r.Net.Link(far, r1, link)
		r.Net.Link(r1, r2, link)
		r.Net.Link(r2, r.Redirector.Host, link)
		r.Net.AutoRoute()
	}, Faults: at(30*time.Second, testbed.CrashPrimary, 0), Steps: []testbed.Step{
		{Do: func(r *testbed.Run) { echoed = r.Dial(far, testSvc, bytes.Repeat([]byte("far"), 10_000), false) }},
		{After: 30 * time.Second, Do: func(r *testbed.Run) {
			if !echoed.Echoed() {
				t.Fatalf("multi-hop echo: %d of 30000 bytes", echoed.Delivered)
			}
			// Failover still works across the multi-hop path.
			echoed.Write([]byte("|post"))
		}},
		{After: 2 * time.Minute},
	}}, verdict{echo: true, chain: []int{1}, check: func(r *testbed.Run) {
		if !echoed.Echoed() {
			t.Fatalf("multi-hop failover: %d of 30005 bytes", echoed.Delivered)
		}
		// The plain routers really carried the traffic.
		if r1.IP().Stats().Forwarded == 0 || r2.IP().Stats().Forwarded == 0 {
			t.Error("intermediate routers forwarded nothing")
		}
		deliveryChecks(t, r)
	}})
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
	net := hydranet.New(hydranet.Config{Seed: 125})
	client := net.AddHost("client", hydranet.HostConfig{})
	r := net.AddRouter("r", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	s0 := net.AddHost("s0", hydranet.HostConfig{})
	s1 := net.AddHost("s1", hydranet.HostConfig{})
	link := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Link(client, r, link)
	net.Link(r, rd.Host, link)
	net.Link(s0, rd.Host, link)
	net.Link(s1, rd.Host, link)
	net.AutoRoute()
	svc := hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.20"), Port: 80}
	if _, err := net.DeployFT(svc, rd, []*hydranet.Host{s0, s1}, hydranet.FTOptions{}, app.Echo); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	taps := []*tunnelTap{{next: s0.HostServer()}, {next: s1.HostServer()}}
	s0.IP().RegisterProto(ipv4.ProtoIPIP, taps[0])
	s1.IP().RegisterProto(ipv4.ProtoIPIP, taps[1])

	seg := &tcp.Segment{SrcPort: 40000, DstPort: svc.Port, Seq: 1, Flags: tcp.FlagACK, Window: 8192, Payload: []byte("corrupt me")}
	sent := seg.Marshal(client.Addr(), svc.Addr)
	sent[len(sent)-1] ^= 0x20 // the checksum no longer covers the payload
	hosts := []*hydranet.Host{client, r, rd.Host, s0, s1}
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
	scaleSvc := hydranet.ServiceID{Addr: testSvc.Addr, Port: 8080}
	var scaled *[]byte
	var e3 *testbed.Stream
	row(t, testbed.Scenario{Seed: 122, Replicas: 2, Send: []byte("replicated"), Setup: func(r *testbed.Run) {
		if err := r.Net.DeployScale(scaleSvc, r.Redirector, []hydranet.ScaleTarget{{Host: r.Replicas[1], Metric: 1}},
			func(c *hydranet.Conn) { app.Source(c, []byte("scaled"), true) }); err != nil {
			t.Fatal(err)
		}
	}, Steps: []testbed.Step{
		{Do: func(r *testbed.Run) {
			c2, _ := r.Client.Dial(scaleSvc)
			scaled = collect(c2)
			app.Source(c2, []byte("x"), false)
		}},
		{After: 10 * time.Second, Do: func(r *testbed.Run) {
			if !r.Echoed() || string(*scaled) != "scaled" {
				t.Fatalf("echoes: %d bytes / %q", r.Delivered, *scaled)
			}
			// The shared virtual host is reference-counted: removing one
			// service must not strand the other.
			r.Replicas[1].Daemon(r.Redirector).Leave(scaleSvc)
			r.Net.Settle()
			e3 = r.Dial(r.Client, testSvc, []byte("still here"), false)
		}},
		{After: 10 * time.Second},
	}}, verdict{echo: true, check: func(*testbed.Run) {
		if !e3.Echoed() {
			t.Fatalf("FT service broken after scaling service left: %d bytes", e3.Delivered)
		}
	}})
}

// TestLinkPanicsPastTheLastSubnet: Link hands out 10.1.0.0/24 through
// 10.255.0.0/24 and then 10.0.0.0/24. A 257th link would reuse the first
// link's subnet, so it panics instead.
func TestLinkPanicsPastTheLastSubnet(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 1})
	hub := net.AddHost("hub", hydranet.HostConfig{})
	var hosts []*hydranet.Host
	for i := range 256 {
		hosts = append(hosts, net.AddHost(fmt.Sprint("h", i), hydranet.HostConfig{}))
		net.Link(hosts[i], hub, hydranet.LinkConfig{})
	}
	if first, last := hosts[0].Addr(), hosts[255].Addr(); first != hydranet.MustAddr("10.1.0.1") || last != hydranet.MustAddr("10.0.0.1") {
		t.Fatalf("the first and 256th links' hosts are %s and %s, want 10.1.0.1 and 10.0.0.1", first, last)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "256 auto-assigned subnets") {
			t.Fatalf("the 257th Link: recovered %v, want the subnet panic", r)
		}
	}()
	net.Link(net.AddHost("h256", hydranet.HostConfig{}), hub, hydranet.LinkConfig{})
}

// TestLinkAddrExplicitAddressing: explicit addresses survive AutoRoute and
// carry traffic between real hosts.
func TestLinkAddrExplicitAddressing(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 123})
	a := net.AddHost("a", hydranet.HostConfig{})
	r := net.AddRouter("r", hydranet.HostConfig{})
	b := net.AddHost("b", hydranet.HostConfig{})
	net.LinkAddr(a, r, hydranet.LinkConfig{}, hydranet.MustAddr("172.16.1.10"), hydranet.MustAddr("172.16.1.1"))
	net.LinkAddr(b, r, hydranet.LinkConfig{}, hydranet.MustAddr("172.16.2.10"), hydranet.MustAddr("172.16.2.1"))
	net.AutoRoute()
	if a.Addr() != hydranet.MustAddr("172.16.1.10") || b.Addr() != hydranet.MustAddr("172.16.2.10") {
		t.Fatalf("addrs: %s / %s", a.Addr(), b.Addr())
	}
	l, _ := b.Listen(0, 7)
	l.SetAcceptFunc(func(c *hydranet.Conn) { app.Echo(c) })
	c, _ := a.DialEndpoint(hydranet.Endpoint{Addr: b.Addr(), Port: 7})
	echoed := collect(c)
	app.Source(c, []byte("explicit"), false)
	net.RunFor(5 * time.Second)
	if string(*echoed) != "explicit" {
		t.Fatalf("echo: %q, want %q", *echoed, "explicit")
	}
}

// TestNetSpillsPastInlineRecords: a Net holds its first hosts and its first
// redirector as records inside it and allocates later ones one by one, and no
// record ever moves. Past both inline sizes — three redirectors in a line,
// three hosts behind each, twelve hosts in all — every *Host and *Redirector
// it handed out is distinct and is the one it routes, delivers and reports
// through: a datagram from every host reaches every other, each redirector
// forwards, and the snapshot's counters are the handed-out hosts' own.
func TestNetSpillsPastInlineRecords(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 1})
	link := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	var rds []*hydranet.Redirector
	var all, ends []*hydranet.Host // every host in order of creation; the non-redirectors
	for i := range 3 {
		rd := net.AddRedirector(fmt.Sprintf("rd%d", i), hydranet.HostConfig{})
		all = append(all, rd.Host)
		if i > 0 {
			net.Link(rds[i-1].Host, rd.Host, link)
		}
		rds = append(rds, rd)
		for j := range 3 {
			h := net.AddHost(fmt.Sprintf("h%d%d", i, j), hydranet.HostConfig{})
			net.Link(h, rd.Host, link)
			all, ends = append(all, h), append(ends, h)
		}
	}
	net.AutoRoute()

	hosts, addrs, tables := map[*hydranet.Host]bool{}, map[hydranet.Addr]bool{}, map[*redirector.Redirector]bool{}
	for _, h := range all {
		hosts[h], addrs[h.Addr()] = true, true
	}
	for _, rd := range rds {
		tables[rd.Table()] = true
	}
	if len(hosts) != len(all) || len(addrs) != len(all) || len(tables) != len(rds) {
		t.Fatalf("%d hosts with %d distinct records and %d addresses, %d redirectors with %d tables",
			len(all), len(hosts), len(addrs), len(rds), len(tables))
	}

	const port = 7
	heard := map[*hydranet.Host][]string{}
	for _, h := range ends {
		if err := h.UDP().Bind(h.Addr(), port, udp.RecvFunc(func(_ udp.Endpoint, _ hydranet.Addr, b []byte) {
			heard[h] = append(heard[h], string(b))
		})); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range ends {
		for _, dst := range ends {
			if src != dst {
				if err := src.UDP().SendTo(src.Addr(), port, udp.Endpoint{Addr: dst.Addr(), Port: port}, []byte(src.Name())); err != nil {
					t.Fatalf("%s → %s: %v", src.Name(), dst.Name(), err)
				}
			}
		}
	}
	net.RunFor(time.Second)

	for _, h := range ends {
		var want []string
		for _, src := range ends {
			if src != h {
				want = append(want, src.Name())
			}
		}
		got := heard[h]
		slices.Sort(got) // nearer senders are heard first
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s heard %v, want %v", h.Name(), got, want)
		}
	}
	snap := net.Snapshot()
	for i, h := range all {
		if hs := snap.Hosts[i]; hs.Name != h.Name() || hs.IP != h.IP().Stats() || hs.IP.Delivered == 0 && hs.IP.Forwarded == 0 {
			t.Errorf("snapshot host %d is %s with IP %+v; handed out %s with %+v", i, hs.Name, hs.IP, h.Name(), h.IP().Stats())
		}
	}
	for i, rd := range rds {
		if rd.Host.IP().Stats().Forwarded == 0 || snap.Redirectors[i].Name != rd.Host.Name() {
			t.Errorf("redirector %d: %s forwarded %d, snapshot names %s", i, rd.Host.Name(), rd.Host.IP().Stats().Forwarded, snap.Redirectors[i].Name)
		}
	}
}
