package udp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/sim"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	f := func(srcPort, dstPort uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		src, dst := ipv4.Addr(0x0a000001), ipv4.Addr(0x0a000002)
		b := Marshal(src, dst, srcPort, dstPort, payload)
		sp, dp, pl, err := Unmarshal(src, dst, b)
		return err == nil && sp == srcPort && dp == dstPort && bytes.Equal(pl, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalDetectsCorruption(t *testing.T) {
	src, dst := ipv4.Addr(1), ipv4.Addr(2)
	b := Marshal(src, dst, 100, 200, []byte("payload"))
	b[10] ^= 0x40
	if _, _, _, err := Unmarshal(src, dst, b); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestUnmarshalDetectsWrongAddresses(t *testing.T) {
	// The pseudo-header ties the datagram to its IP addresses; delivery to
	// the wrong address must fail the checksum.
	b := Marshal(1, 2, 100, 200, []byte("x"))
	if _, _, _, err := Unmarshal(1, 3, b); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("err = %v, want ErrBadChecksum for wrong dst", err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	if _, _, _, err := Unmarshal(1, 2, []byte{1, 2, 3}); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

// twoHosts wires two directly connected hosts with UDP stacks.
func twoHosts(t *testing.T) (*sim.Scheduler, *Stack, *Stack, ipv4.Addr, ipv4.Addr) {
	t.Helper()
	sched := sim.NewScheduler(11)
	net := netsim.New(sched)
	a := net.AddNode(netsim.NodeConfig{Name: "a"})
	b := net.AddNode(netsim.NodeConfig{Name: "b"})
	net.Connect(a, b, netsim.LinkConfig{})
	ipA := ipv4.NewStack(a, sched)
	ipB := ipv4.NewStack(b, sched)
	addrA, addrB := inet.MustParseAddr("10.0.0.1"), inet.MustParseAddr("10.0.0.2")
	ipA.SetAddr(0, addrA)
	ipB.SetAddr(0, addrB)
	ipA.Routes().AddDefault(0)
	ipB.Routes().AddDefault(0)
	return sched, NewStack(ipA), NewStack(ipB), addrA, addrB
}

func TestSendReceive(t *testing.T) {
	sched, ua, ub, addrA, addrB := twoHosts(t)
	var got []byte
	var from Endpoint
	if err := ub.Bind(0, 7000, RecvFunc(func(f Endpoint, _ ipv4.Addr, p []byte) {
		from = f
		got = append([]byte(nil), p...)
	})); err != nil {
		t.Fatal(err)
	}
	if err := ua.SendTo(0, 5555, Endpoint{Addr: addrB, Port: 7000}, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if string(got) != "hello" {
		t.Fatalf("received %q", got)
	}
	if from.Addr != addrA || from.Port != 5555 {
		t.Fatalf("from = %v, want %s:5555", from, addrA)
	}
}

func TestBindConflict(t *testing.T) {
	_, _, ub, _, _ := twoHosts(t)
	if err := ub.Bind(0, 9000, RecvFunc(func(Endpoint, ipv4.Addr, []byte) {})); err != nil {
		t.Fatal(err)
	}
	if err := ub.Bind(0, 9000, RecvFunc(func(Endpoint, ipv4.Addr, []byte) {})); !errors.Is(err, ErrPortInUse) {
		t.Errorf("second bind err = %v, want ErrPortInUse", err)
	}
	// A specific-address bind on the same port coexists with the wildcard.
	if err := ub.Bind(inet.MustParseAddr("10.0.0.2"), 9000, RecvFunc(func(Endpoint, ipv4.Addr, []byte) {})); err != nil {
		t.Errorf("specific bind alongside wildcard failed: %v", err)
	}
}

func TestSpecificAddressPreferredOverWildcard(t *testing.T) {
	sched, ua, ub, _, addrB := twoHosts(t)
	var hits []string
	_ = ub.Bind(0, 80, RecvFunc(func(_ Endpoint, _ ipv4.Addr, _ []byte) { hits = append(hits, "wildcard") }))
	_ = ub.Bind(addrB, 80, RecvFunc(func(_ Endpoint, _ ipv4.Addr, _ []byte) { hits = append(hits, "specific") }))
	_ = ua.SendTo(0, 1234, Endpoint{Addr: addrB, Port: 80}, []byte("x"))
	sched.Run()
	if len(hits) != 1 || hits[0] != "specific" {
		t.Fatalf("hits = %v, want [specific]", hits)
	}
}

func TestUnbindStopsDelivery(t *testing.T) {
	sched, ua, ub, _, addrB := twoHosts(t)
	count := 0
	_ = ub.Bind(0, 81, RecvFunc(func(Endpoint, ipv4.Addr, []byte) { count++ }))
	_ = ua.SendTo(0, 1, Endpoint{Addr: addrB, Port: 81}, []byte("1"))
	sched.Run()
	ub.Unbind(0, 81)
	_ = ua.SendTo(0, 1, Endpoint{Addr: addrB, Port: 81}, []byte("2"))
	sched.Run()
	if count != 1 {
		t.Fatalf("delivered %d, want 1", count)
	}
	_, noListener, _ := ub.Stats()
	if noListener != 1 {
		t.Fatalf("noListener = %d, want 1", noListener)
	}
}

func TestReplyUsingFromEndpoint(t *testing.T) {
	sched, ua, ub, addrA, addrB := twoHosts(t)
	var reply []byte
	_ = ub.Bind(0, 50, RecvFunc(func(from Endpoint, local ipv4.Addr, p []byte) {
		_ = ub.SendTo(local, 50, from, append([]byte("re:"), p...))
	}))
	_ = ua.Bind(0, 60, RecvFunc(func(_ Endpoint, _ ipv4.Addr, p []byte) { reply = append([]byte(nil), p...) }))
	_ = ua.SendTo(addrA, 60, Endpoint{Addr: addrB, Port: 50}, []byte("ping"))
	sched.Run()
	if string(reply) != "re:ping" {
		t.Fatalf("reply %q", reply)
	}
}

func TestVirtualHostDemux(t *testing.T) {
	// A datagram for a virtual-host address must reach the socket bound to
	// that address, and the handler must see which local address it hit.
	sched, ua, ub, _, _ := twoHosts(t)
	vhost := inet.MustParseAddr("192.20.225.20")
	// Reach into the IP layer via the test topology: host B hosts vhost.
	// (Stack.ip is unexported; re-register through a fresh local addr.)
	ubIP := ubIPStack(ub)
	ubIP.AddLocalAddr(vhost)
	var sawLocal ipv4.Addr
	_ = ub.Bind(vhost, 80, RecvFunc(func(_ Endpoint, local ipv4.Addr, _ []byte) { sawLocal = local }))
	_ = ua.SendTo(0, 1000, Endpoint{Addr: vhost, Port: 80}, []byte("GET"))
	sched.Run()
	if sawLocal != vhost {
		t.Fatalf("handler saw local addr %s, want %s", sawLocal, vhost)
	}
}

// ubIPStack exposes the IP stack for tests in this package.
func ubIPStack(s *Stack) *ipv4.Stack { return s.ip }

// TestBindingTable drives one port's two bindings — the wildcard and the
// host's own address — in both bind orders and through each Unbind. After
// every step a datagram goes to the host's own address and one to a virtual
// host: the specific binding wins for its address, the wildcard takes the
// rest.
func TestBindingTable(t *testing.T) {
	own, vhost := inet.MustParseAddr("10.0.0.2"), inet.MustParseAddr("192.20.225.20")
	name := map[ipv4.Addr]string{0: "wildcard", own: "own"}
	for _, tc := range []struct {
		name   string
		bind   []ipv4.Addr
		unbind []ipv4.Addr
		// per check, first before any Unbind: the binding that a datagram
		// to own, then one to vhost, reaches ("" for none)
		want [][2]string
	}{
		{"wildcard first", []ipv4.Addr{0, own}, nil, [][2]string{{"own", "wildcard"}}},
		{"own first", []ipv4.Addr{own, 0}, nil, [][2]string{{"own", "wildcard"}}},
		{"unbind own", []ipv4.Addr{0, own}, []ipv4.Addr{own},
			[][2]string{{"own", "wildcard"}, {"wildcard", "wildcard"}}},
		{"unbind wildcard", []ipv4.Addr{own, 0}, []ipv4.Addr{0},
			[][2]string{{"own", "wildcard"}, {"own", ""}}},
		{"unbind both", []ipv4.Addr{own, 0}, []ipv4.Addr{own, 0},
			[][2]string{{"own", "wildcard"}, {"wildcard", "wildcard"}, {"", ""}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, ua, ub, _, _ := twoHosts(t)
			ubIPStack(ub).AddLocalAddr(vhost)
			var hit string
			for _, a := range tc.bind {
				if err := ub.Bind(a, 80, RecvFunc(func(Endpoint, ipv4.Addr, []byte) { hit = name[a] })); err != nil {
					t.Fatal(err)
				}
			}
			for i, want := range tc.want {
				if i > 0 {
					ub.Unbind(tc.unbind[i-1], 80)
				}
				for j, dst := range []ipv4.Addr{own, vhost} {
					hit = ""
					_ = ua.SendTo(0, 1234, Endpoint{Addr: dst, Port: 80}, []byte("x"))
					sched.Run()
					if hit != want[j] {
						t.Errorf("check %d: datagram to %s reached %q, want %q", i, dst, hit, want[j])
					}
				}
			}
		})
	}
}

// TestBindingsInline: a Stack's first four bindings live in its inline
// backing, so binding and unbinding them allocates nothing.
func TestBindingsInline(t *testing.T) {
	_, ua, _, _, _ := twoHosts(t)
	ip, recv := ubIPStack(ua), RecvFunc(func(Endpoint, ipv4.Addr, []byte) {})
	var s Stack
	allocs := testing.AllocsPerRun(10, func() {
		s = Stack{}
		s.Init(ip)
		for port := uint16(1); port <= 4; port++ {
			if err := s.Bind(0, port, recv); err != nil {
				t.Fatal(err)
			}
		}
		for port := uint16(1); port <= 4; port++ {
			s.Unbind(0, port)
		}
	})
	if allocs != 0 {
		t.Errorf("Init, four Binds and their Unbinds allocate %v objects, want 0", allocs)
	}
}
