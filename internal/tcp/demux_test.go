package tcp

import (
	"testing"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
)

func mustAddr(t *testing.T, s string) ipv4.Addr {
	t.Helper()
	return inet.MustParseAddr(s)
}

// TestListenerSpecificBeatsWildcard mirrors the UDP demux rule: a listener
// bound to a concrete address wins over the wildcard for that address.
func TestListenerSpecificBeatsWildcard(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{})
	hits := map[string]int{}
	wild, err := e.server.Listen(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	wild.SetAcceptFunc(func(c *Conn) { hits["wildcard"]++ })
	spec, err := e.server.Listen(e.serverAddr, 80)
	if err != nil {
		t.Fatal(err)
	}
	spec.SetAcceptFunc(func(c *Conn) { hits["specific"]++ })

	if _, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80}); err != nil {
		t.Fatal(err)
	}
	e.sched.RunUntil(time.Second)
	if hits["specific"] != 1 || hits["wildcard"] != 0 {
		t.Fatalf("hits = %v, want the specific listener", hits)
	}
}

// TestVirtualHostListenerIsolation: listeners for two virtual hosts on the
// same port accept independently.
func TestVirtualHostListenerIsolation(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{})
	v1 := mustAddr(t, "192.20.225.20")
	v2 := mustAddr(t, "192.20.225.21")
	e.server.IP().AddLocalAddr(v1)
	e.server.IP().AddLocalAddr(v2)
	var got []string
	mk := func(tag string) func(*Conn) {
		return func(c *Conn) { got = append(got, tag+"@"+c.Local().Addr.String()) }
	}
	l1, _ := e.server.Listen(v1, 80)
	l1.SetAcceptFunc(mk("one"))
	l2, _ := e.server.Listen(v2, 80)
	l2.SetAcceptFunc(mk("two"))

	if _, err := e.client.Connect(0, Endpoint{Addr: v2, Port: 80}); err != nil {
		t.Fatal(err)
	}
	e.sched.RunUntil(time.Second)
	if len(got) != 1 || got[0] != "two@192.20.225.21" {
		t.Fatalf("accepts = %v", got)
	}
}
