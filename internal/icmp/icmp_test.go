package icmp_test

import (
	"testing"
	"testing/quick"
	"time"

	"hydranet"
	"hydranet/internal/icmp"
	"hydranet/internal/ipv4"
	"hydranet/internal/udp"
)

func TestMessageRoundTrip(t *testing.T) {
	f := func(typRaw, code uint8, id, seq uint16, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		in := &icmp.Message{
			Type: icmp.Type(typRaw), Code: code, ID: id, Seq: seq, Payload: payload,
		}
		out, err := icmp.Unmarshal(in.Marshal())
		if err != nil {
			return false
		}
		if out.Type != in.Type || out.Code != in.Code || out.ID != in.ID || out.Seq != in.Seq {
			return false
		}
		return string(out.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	m := icmp.Message{Type: icmp.TypeEchoRequest, ID: 1, Seq: 2, Payload: []byte("x")}
	b := m.Marshal()
	b[len(b)-1] ^= 0xff
	if _, err := icmp.Unmarshal(b); err == nil {
		t.Error("corrupt message accepted")
	}
	if _, err := icmp.Unmarshal(b[:4]); err == nil {
		t.Error("truncated message accepted")
	}
}

// chainNet builds client — r1 — r2 — server.
func chainNet(t *testing.T) (*hydranet.Net, *hydranet.Host, *hydranet.Host, *hydranet.Host, *hydranet.Host) {
	t.Helper()
	net := hydranet.New(hydranet.Config{Seed: 91})
	client := net.AddHost("client", hydranet.HostConfig{})
	r1 := net.AddRouter("r1", hydranet.HostConfig{})
	r2 := net.AddRouter("r2", hydranet.HostConfig{})
	server := net.AddHost("server", hydranet.HostConfig{})
	link := hydranet.LinkConfig{Rate: 10_000_000, Delay: 2 * time.Millisecond}
	net.Link(client, r1, link)
	net.Link(r1, r2, link)
	net.Link(r2, server, link)
	net.AutoRoute()
	return net, client, r1, r2, server
}

func TestPingEndToEnd(t *testing.T) {
	net, client, _, _, server := chainNet(t)
	var res icmp.EchoResult
	got := false
	client.Ping(server.Addr(), 5*time.Second, func(r icmp.EchoResult) { res = r; got = true })
	net.RunFor(time.Second)
	if !got {
		t.Fatal("ping never completed")
	}
	if res.TimedOut || res.Unreachable {
		t.Fatalf("ping failed: %+v", res)
	}
	if res.From != server.Addr() {
		t.Errorf("reply from %s, want %s", res.From, server.Addr())
	}
	// 3 hops each way over 2 ms links: RTT at least 12 ms.
	if res.RTT < 12*time.Millisecond {
		t.Errorf("RTT %v implausibly low", res.RTT)
	}
}

func TestPingTimeout(t *testing.T) {
	// A routable address with no machine behind it: the probe crosses the
	// routers, falls off the last link, and the echo times out.
	net, client, _, _, server := chainNet(t)
	ghost := server.Addr() + 7
	var res icmp.EchoResult
	got := false
	client.Ping(ghost, 2*time.Second, func(r icmp.EchoResult) { res = r; got = true })
	net.RunFor(5 * time.Second)
	if !got || !res.TimedOut {
		t.Fatalf("expected timeout, got %+v (done=%v)", res, got)
	}
}

func TestPingNoRouteIsImmediatelyUnreachable(t *testing.T) {
	net, client, _, _, _ := chainNet(t)
	var res icmp.EchoResult
	client.Ping(hydranet.MustAddr("203.0.113.99"), 2*time.Second,
		func(r icmp.EchoResult) { res = r })
	net.RunFor(time.Second)
	if !res.Unreachable {
		t.Fatalf("expected local unreachable, got %+v", res)
	}
}

func TestTimeExceededFromIntermediateRouter(t *testing.T) {
	net, client, r1, _, server := chainNet(t)
	var res icmp.EchoResult
	got := false
	client.ICMP().Ping(server.Addr(), 1, 2*time.Second,
		func(r icmp.EchoResult) { res = r; got = true })
	net.RunFor(3 * time.Second)
	if !got {
		t.Fatal("no response to TTL-1 probe")
	}
	if !res.TimeExceeded {
		t.Fatalf("want time-exceeded, got %+v", res)
	}
	if res.From != r1.Addr() {
		t.Errorf("error from %s, want first router %s", res.From, r1.Addr())
	}
}

func TestTraceroute(t *testing.T) {
	net, client, r1, r2, server := chainNet(t)
	var hops []hydranet.Addr
	done := false
	client.Traceroute(server.Addr(), 8, func(h []hydranet.Addr) { hops = h; done = true })
	net.RunFor(30 * time.Second)
	if !done {
		t.Fatal("traceroute never finished")
	}
	if len(hops) != 3 {
		t.Fatalf("hops = %v, want 3", hops)
	}
	if hops[0] != r1.Addr() || hops[1] != r2.Addr() || hops[2] != server.Addr() {
		t.Fatalf("path = %v, want [r1 r2 server]", hops)
	}
}

func TestPortUnreachable(t *testing.T) {
	net, client, _, _, server := chainNet(t)
	seen := false
	var quoted *ipv4.Header
	client.ICMP().OnError(func(m *icmp.Message, inner *ipv4.Header) {
		if m.Type == icmp.TypeUnreachable && m.Code == icmp.CodePortUnreachable {
			seen = true
			quoted = inner
		}
	})
	_ = client.UDP().SendTo(0, 4000,
		udp.Endpoint{Addr: server.Addr(), Port: 4999}, []byte("anyone home?"))
	net.RunFor(time.Second)
	if !seen {
		t.Fatal("no port-unreachable for a closed UDP port")
	}
	if quoted == nil || quoted.Dst != server.Addr() || quoted.Proto != ipv4.ProtoUDP {
		t.Fatalf("quoted header wrong: %+v", quoted)
	}
}

func TestPingVirtualServiceAddress(t *testing.T) {
	// A virtual host answers pings under its virtual address — transparency
	// extends to ICMP.
	net := hydranet.New(hydranet.Config{Seed: 92})
	client, rd, hs := net.AddHost("client", hydranet.HostConfig{}), net.AddRedirector("rd", hydranet.HostConfig{}), net.AddHost("s0", hydranet.HostConfig{})
	link := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Link(client, rd.Host, link)
	net.Link(hs, rd.Host, link)
	net.AutoRoute()
	vaddr := hydranet.MustAddr("192.20.225.20")
	hs.HostServer().VHost(vaddr)
	// Ping to the virtual address routes via the redirector's default...
	// the redirector has no table entry for ICMP, so the packet would be
	// dropped; ping the host server's real address through the router
	// instead (virtual addresses are reachable for TCP via redirection
	// only — documented behaviour).
	var res icmp.EchoResult
	client.Ping(hs.Addr(), 2*time.Second, func(r icmp.EchoResult) { res = r })
	net.RunFor(time.Second)
	if res.From != hs.Addr() || res.TimedOut {
		t.Fatalf("ping result %+v", res)
	}
}
