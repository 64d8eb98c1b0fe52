package tcp

import (
	"slices"
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

// TestConnTableInline: a Stack's first four connections live in its inline
// table, so entering and removing them allocates nothing.
func TestConnTableInline(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{}, Config{})
	var conns [4]Conn
	for i := range conns {
		conns[i].local = Endpoint{Addr: e.clientAddr, Port: uint16(50000 + i)}
		conns[i].remote = Endpoint{Addr: e.serverAddr, Port: 80}
	}
	var s Stack
	allocs := testing.AllocsPerRun(10, func() {
		s = Stack{}
		s.Init(e.client.IP(), Config{})
		for i := range conns {
			s.addConn(&conns[i])
		}
		for i := range conns {
			s.removeConn(&conns[i])
		}
	})
	if allocs != 0 {
		t.Errorf("Init, four connections entered and removed allocate %v objects, want 0", allocs)
	}
}

// TestResetWalksTableAsItChanges: Reset terminates the table's connections
// in endpoint order while their close callbacks change it — here the
// second's ends the first (already reset) and the eleventh. Every connection
// still live when its turn comes is reset once, however many there are.
func TestResetWalksTableAsItChanges(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{})
	const n = 12
	conns := make([]*Conn, n)
	var closed []int
	for i := range conns {
		c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		c.OnClosed(func(error) {
			closed = append(closed, i)
			if i == 1 {
				conns[0].Abort()
				conns[10].Abort()
			}
		})
	}
	for i := 1; i < n; i++ {
		if conns[i-1].Local().Port >= conns[i].Local().Port {
			t.Fatalf("ephemeral ports not rising: %v then %v", conns[i-1].Local(), conns[i].Local())
		}
	}
	e.client.Reset()
	want := []int{0, 1, 10, 2, 3, 4, 5, 6, 7, 8, 9, 11}
	if !slices.Equal(closed, want) {
		t.Errorf("connections closed in order %v, want %v", closed, want)
	}
	if k := e.client.NumConns(); k != 0 {
		t.Errorf("%d connections left after Reset", k)
	}
}
