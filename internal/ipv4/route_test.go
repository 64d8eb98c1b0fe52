package ipv4

import (
	"math/rand"
	"sort"
	"testing"

	"hydranet/internal/inet"
)

func TestLongestPrefixMatch(t *testing.T) {
	var rt RoutingTable
	rt.AddDefault(0)
	rt.Add(Route{Dst: MustParsePrefix("10.0.0.0/8"), Ifindex: 1})
	rt.Add(Route{Dst: MustParsePrefix("10.1.0.0/16"), Ifindex: 2})
	rt.Add(Route{Dst: MustParsePrefix("10.1.2.3/32"), Ifindex: 3})

	tests := []struct {
		addr string
		want int
	}{
		{"8.8.8.8", 0},
		{"10.9.9.9", 1},
		{"10.1.9.9", 2},
		{"10.1.2.3", 3},
	}
	for _, tt := range tests {
		if got := rt.Lookup(inet.MustParseAddr(tt.addr)); got != tt.want {
			t.Errorf("Lookup(%s) = %d, want %d", tt.addr, got, tt.want)
		}
	}
}

func TestNoRoute(t *testing.T) {
	var rt RoutingTable
	rt.Add(Route{Dst: MustParsePrefix("10.0.0.0/8"), Ifindex: 1})
	if got := rt.Lookup(inet.MustParseAddr("11.0.0.1")); got != -1 {
		t.Errorf("Lookup = %d, want -1", got)
	}
}

func TestRouteReplacement(t *testing.T) {
	var rt RoutingTable
	rt.Add(Route{Dst: MustParsePrefix("10.0.0.0/8"), Ifindex: 1})
	rt.Add(Route{Dst: MustParsePrefix("10.0.0.0/8"), Ifindex: 5})
	if rt.Len() != 1 {
		t.Fatalf("Len = %d after replacement, want 1", rt.Len())
	}
	if got := rt.Lookup(inet.MustParseAddr("10.0.0.1")); got != 5 {
		t.Errorf("Lookup = %d, want replaced iface 5", got)
	}
}

func TestInsertionOrderIrrelevant(t *testing.T) {
	var a, b RoutingTable
	r1 := Route{Dst: MustParsePrefix("10.0.0.0/8"), Ifindex: 1}
	r2 := Route{Dst: MustParsePrefix("10.1.0.0/16"), Ifindex: 2}
	a.Add(r1)
	a.Add(r2)
	b.Add(r2)
	b.Add(r1)
	addr := inet.MustParseAddr("10.1.0.1")
	if a.Lookup(addr) != b.Lookup(addr) {
		t.Error("lookup depends on insertion order")
	}
}

// scanTable is the table this package had before host routes were indexed
// and masks stored: every route in one slice, re-sorted by descending length
// on each Add, scanned in full by Lookup. It defines what RoutingTable must
// answer.
type scanTable struct{ routes []Route }

func (t *scanTable) Add(r Route) {
	for i := range t.routes {
		if t.routes[i].Dst == r.Dst {
			t.routes[i] = r
			return
		}
	}
	t.routes = append(t.routes, r)
	sort.SliceStable(t.routes, func(i, j int) bool {
		return t.routes[i].Dst.Bits > t.routes[j].Dst.Bits
	})
}

func (t *scanTable) Lookup(dst Addr) int {
	for _, r := range t.routes {
		if r.Dst.Contains(dst) {
			return r.Ifindex
		}
	}
	return -1
}

// TestRoutingTableMatchesLinearScan: on random tables — few distinct
// networks, so prefixes nest, share a network under different addresses, and
// repeat exactly (a replacement) — every lookup and the route count agree
// with the linear scan after every Add.
func TestRoutingTableMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lengths := []int{0, 8, 16, 24, 24, 30, 32, 32, 32}
	randAddr := func() Addr {
		return AddrFrom4(10, byte(rng.Intn(3)), byte(rng.Intn(3)), byte(rng.Intn(6)))
	}
	replaced := 0
	for table := 0; table < 200; table++ {
		var got RoutingTable
		var want scanTable
		for n := rng.Intn(120); n > 0; n-- {
			r := Route{Dst: Prefix{Addr: randAddr(), Bits: lengths[rng.Intn(len(lengths))]}, Ifindex: rng.Intn(8)}
			before := len(want.routes)
			got.Add(r)
			want.Add(r)
			if len(want.routes) == before {
				replaced++
			}
			if got.Len() != len(want.routes) {
				t.Fatalf("table %d: Len = %d after adding %v, linear scan holds %d", table, got.Len(), r.Dst, len(want.routes))
			}
			for probe := 0; probe < 8; probe++ {
				dst := randAddr()
				if probe == 0 {
					dst = r.Dst.Addr
				}
				if g, w := got.Lookup(dst), want.Lookup(dst); g != w {
					t.Fatalf("table %d after adding %v→%d: Lookup(%s) = %d, linear scan %d", table, r.Dst, r.Ifindex, dst, g, w)
				}
			}
		}
	}
	if replaced == 0 {
		t.Fatal("no duplicate prefix in any table — replacement is not exercised")
	}
}

func TestPrefixContains(t *testing.T) {
	tests := []struct {
		prefix string
		addr   string
		want   bool
	}{
		{"10.0.0.0/8", "10.1.2.3", true},
		{"10.0.0.0/8", "11.1.2.3", false},
		{"192.20.225.0/24", "192.20.225.20", true},
		{"192.20.225.0/24", "192.20.226.20", false},
		{"0.0.0.0/0", "8.8.8.8", true},
		{"1.2.3.4/32", "1.2.3.4", true},
		{"1.2.3.4/32", "1.2.3.5", false},
	}
	for _, tt := range tests {
		p := MustParsePrefix(tt.prefix)
		if got := p.Contains(inet.MustParseAddr(tt.addr)); got != tt.want {
			t.Errorf("%s.Contains(%s) = %v, want %v", tt.prefix, tt.addr, got, tt.want)
		}
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, bad := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "x/8", "10.0.0.0/y"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", bad)
		}
	}
}

func TestPrefixString(t *testing.T) {
	p := MustParsePrefix("172.16.0.0/12")
	if got := p.String(); got != "172.16.0.0/12" {
		t.Errorf("String() = %q", got)
	}
}

// TestRoutingTableInline: a table holds what a host of the five-host full
// mesh installs — 12 host routes and 11 others — without allocating.
func TestRoutingTableInline(t *testing.T) {
	var routes []Route
	for i := 0; i < 12; i++ {
		routes = append(routes, Route{Dst: Prefix{Addr: AddrFrom4(10, byte(i+1), 0, 1), Bits: 32}, Ifindex: i % 4})
	}
	for i := 0; i < 10; i++ {
		routes = append(routes, Route{Dst: Prefix{Addr: AddrFrom4(10, byte(i+1), 0, 0), Bits: 24}, Ifindex: i % 4})
	}
	routes = append(routes, Route{Ifindex: 0})
	var rt RoutingTable
	allocs := testing.AllocsPerRun(10, func() {
		rt = RoutingTable{}
		rt.Add(routes...)
	})
	if allocs != 0 || rt.Len() != 23 {
		t.Errorf("23 routes take %v objects and hold %d, want 0 and 23", allocs, rt.Len())
	}
}
