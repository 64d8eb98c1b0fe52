package hydranet

import (
	"testing"
	"time"
)

// TestScaledUDPService: the redirector table matches UDP ports too (paper
// Section 3: "pairs of IP addresses and port numbers"). A DNS-style
// request/response service is replicated; the nearest replica answers under
// the virtual address.
func TestScaledUDPService(t *testing.T) {
	net := New(Config{Seed: 51})
	client := net.AddHost("client", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	near := net.AddHost("near", HostConfig{})
	far := net.AddHost("far", HostConfig{})
	link := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	for _, h := range []*Host{client, near, far} {
		net.Link(h, rd.Host, link)
	}
	net.AutoRoute()

	svc := ServiceID{Addr: MustAddr("192.20.225.53"), Port: 53}
	err := net.DeployScaleUDP(svc, rd, []ScaleTarget{
		{Host: near, Metric: 1},
		{Host: far, Metric: 9},
	}, func(h *Host) UDPRecvFunc {
		return func(from UDPEndpoint, local Addr, payload []byte) {
			resp := append([]byte(h.Name()+" answers: "), payload...)
			// Reply from the virtual address: the client must see the
			// service, not the physical replica.
			_ = h.UDP().SendTo(local, svc.Port, from, resp)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	var reply []byte
	var replyFrom UDPEndpoint
	if err := client.UDP().Bind(0, 4053, func(from UDPEndpoint, _ Addr, p []byte) {
		reply = append([]byte(nil), p...)
		replyFrom = from
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.UDP().SendTo(0, 4053,
		svc, []byte("A? example.com")); err != nil {
		t.Fatal(err)
	}
	net.RunFor(2 * time.Second)

	if string(reply) != "near answers: A? example.com" {
		t.Fatalf("reply = %q", reply)
	}
	if replyFrom.Addr != svc.Addr {
		t.Fatalf("reply from %s, want the virtual service address %s", replyFrom.Addr, svc.Addr)
	}
}

// TestScaleTargetLeave: a scaling replica that leaves is removed from the
// table, and traffic shifts to the remaining replica.
func TestScaleTargetLeave(t *testing.T) {
	net := New(Config{Seed: 52})
	client := net.AddHost("client", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	a := net.AddHost("a", HostConfig{})
	b := net.AddHost("b", HostConfig{})
	link := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	for _, h := range []*Host{client, a, b} {
		net.Link(h, rd.Host, link)
	}
	net.AutoRoute()

	svc := ServiceID{Addr: MustAddr("192.20.225.53"), Port: 53}
	err := net.DeployScaleUDP(svc, rd, []ScaleTarget{
		{Host: a, Metric: 1},
		{Host: b, Metric: 5},
	}, func(h *Host) UDPRecvFunc {
		return func(from UDPEndpoint, local Addr, payload []byte) {
			_ = h.UDP().SendTo(local, svc.Port, from, []byte(h.Name()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	var replies []string
	_ = client.UDP().Bind(0, 4053, func(_ UDPEndpoint, _ Addr, p []byte) {
		replies = append(replies, string(p))
	})
	ask := func() {
		_ = client.UDP().SendTo(0, 4053, svc, []byte("q"))
		net.RunFor(time.Second)
	}
	ask()
	// The nearest replica leaves; the farther one takes over.
	a.Daemon(rd).Leave(svc)
	net.Settle()
	ask()
	if len(replies) != 2 || replies[0] != "a" || replies[1] != "b" {
		t.Fatalf("replies = %v, want [a b]", replies)
	}
}
