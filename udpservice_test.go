package hydranet_test

import (
	"testing"
	"time"

	"hydranet"
)

// TestScaledUDPService: the redirector table matches UDP ports too (paper
// Section 3: "pairs of IP addresses and port numbers"). A DNS-style
// request/response service is replicated; the nearest replica answers under
// the virtual address.
func TestScaledUDPService(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 51})
	client := net.AddHost("client", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	near := net.AddHost("near", hydranet.HostConfig{})
	far := net.AddHost("far", hydranet.HostConfig{})
	link := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	for _, h := range []*hydranet.Host{client, near, far} {
		net.Link(h, rd.Host, link)
	}
	net.AutoRoute()

	svc := hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.53"), Port: 53}
	err := net.DeployScaleUDP(svc, rd, []hydranet.ScaleTarget{
		{Host: near, Metric: 1},
		{Host: far, Metric: 9},
	}, func(h *hydranet.Host) hydranet.UDPRecvFunc {
		return func(from hydranet.UDPEndpoint, local hydranet.Addr, payload []byte) {
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
	var replyFrom hydranet.UDPEndpoint
	if err := client.UDP().Bind(0, 4053, hydranet.UDPRecvFunc(func(from hydranet.UDPEndpoint, _ hydranet.Addr, p []byte) {
		reply = append([]byte(nil), p...)
		replyFrom = from
	})); err != nil {
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
	net := hydranet.New(hydranet.Config{Seed: 52})
	client := net.AddHost("client", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	a := net.AddHost("a", hydranet.HostConfig{})
	b := net.AddHost("b", hydranet.HostConfig{})
	link := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	for _, h := range []*hydranet.Host{client, a, b} {
		net.Link(h, rd.Host, link)
	}
	net.AutoRoute()

	svc := hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.53"), Port: 53}
	err := net.DeployScaleUDP(svc, rd, []hydranet.ScaleTarget{
		{Host: a, Metric: 1},
		{Host: b, Metric: 5},
	}, func(h *hydranet.Host) hydranet.UDPRecvFunc {
		return func(from hydranet.UDPEndpoint, local hydranet.Addr, payload []byte) {
			_ = h.UDP().SendTo(local, svc.Port, from, []byte(h.Name()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	var replies []string
	_ = client.UDP().Bind(0, 4053, hydranet.UDPRecvFunc(func(_ hydranet.UDPEndpoint, _ hydranet.Addr, p []byte) {
		replies = append(replies, string(p))
	}))
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
