package ipv4

import (
	"fmt"
	"strconv"
	"strings"

	"hydranet/internal/inet"
)

// Addr is an IPv4 address in host byte order. The type lives in inet, the
// leaf package obs can import (ipv4 → netsim → obs).
type Addr = inet.Addr

// AddrFrom4 builds an address from its four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr { return inet.AddrFrom4(a, b, c, d) }

// Prefix is a CIDR prefix used by the routing table.
type Prefix struct {
	Addr Addr
	Bits int
}

// ParsePrefix parses "a.b.c.d/n".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipv4: %q has no /bits", s)
	}
	addr, err := inet.ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ipv4: bad prefix length in %q", s)
	}
	return Prefix{Addr: addr, Bits: bits}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func (p Prefix) mask() Addr {
	if p.Bits <= 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - p.Bits))
}

// Contains reports whether a falls within the prefix.
func (p Prefix) Contains(a Addr) bool {
	m := p.mask()
	return a&m == p.Addr&m
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Addr, p.Bits)
}

// Route maps a destination prefix to an outgoing interface.
type Route struct {
	Dst     Prefix
	Ifindex int
}

// RoutingTable performs longest-prefix-match lookups over static routes.
// The zero value is an empty table, which must not be copied once a route is
// added.
//
// Host routes (/32) are kept apart, sorted by address, and found by binary
// search: a topology gives every host one per remote interface, and a
// destination that matches none of them — a service address on its way to
// the default route — would otherwise be compared with each. The other
// routes are scanned in order, most specific first, against masks computed
// when they were added.
//
// Both kinds live in the table up to what a host of the paper's five-host
// full mesh holds: 12 host routes and 11 others (its 4 links' prefixes, the
// other 6 links' and a default).
type RoutingTable struct {
	hosts  []hostRoute   // /32 routes, ascending address
	nets   []prefixRoute // all others: descending prefix length, then insertion order
	hosts0 [12]hostRoute
	nets0  [11]prefixRoute
}

type hostRoute struct {
	addr    Addr
	ifindex int
}

type prefixRoute struct {
	net, mask Addr // Dst.Addr&mask, so a probe is one AND and one compare
	Route
}

// Add installs routes, in order. A route with an identical prefix replaces
// the earlier one; among routes of equal length that match the same address,
// the one added first wins. Past the table's own backing it grows once per
// call, to hold every route given, so a caller that has a host's routes
// together installs them with one allocation per kind of route.
func (t *RoutingTable) Add(rs ...Route) {
	if t.hosts == nil {
		t.hosts, t.nets = t.hosts0[:0], t.nets0[:0]
	}
	hosts := 0
	for _, r := range rs {
		if r.Dst.Bits == 32 {
			hosts++
		}
	}
	// Not slices.Grow: under the race detector it allocates twice.
	if n := len(t.hosts) + hosts; n > cap(t.hosts) {
		t.hosts = append(make([]hostRoute, 0, n), t.hosts...)
	}
	if n := len(t.nets) + len(rs) - hosts; n > cap(t.nets) {
		t.nets = append(make([]prefixRoute, 0, n), t.nets...)
	}
	for _, r := range rs {
		t.add(r)
	}
}

func (t *RoutingTable) add(r Route) {
	if r.Dst.Bits == 32 {
		i := t.searchHost(r.Dst.Addr)
		if i < len(t.hosts) && t.hosts[i].addr == r.Dst.Addr {
			t.hosts[i].ifindex = r.Ifindex
			return
		}
		t.hosts = append(t.hosts, hostRoute{})
		copy(t.hosts[i+1:], t.hosts[i:])
		t.hosts[i] = hostRoute{addr: r.Dst.Addr, ifindex: r.Ifindex}
		return
	}
	// The route goes behind every route at least as long.
	at := len(t.nets)
	for i := range t.nets {
		if t.nets[i].Dst == r.Dst {
			t.nets[i].Ifindex = r.Ifindex
			return
		}
		if at == len(t.nets) && t.nets[i].Dst.Bits < r.Dst.Bits {
			at = i
		}
	}
	mask := r.Dst.mask()
	t.nets = append(t.nets, prefixRoute{})
	copy(t.nets[at+1:], t.nets[at:])
	t.nets[at] = prefixRoute{net: r.Dst.Addr & mask, mask: mask, Route: r}
}

// AddDefault installs a 0.0.0.0/0 route out ifindex.
func (t *RoutingTable) AddDefault(ifindex int) {
	t.Add(Route{Dst: Prefix{}, Ifindex: ifindex})
}

// searchHost returns the index of the first host route at or above addr.
func (t *RoutingTable) searchHost(addr Addr) int {
	lo, hi := 0, len(t.hosts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.hosts[mid].addr < addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Lookup returns the outgoing interface for dst, or -1 if no route matches.
func (t *RoutingTable) Lookup(dst Addr) int {
	if i := t.searchHost(dst); i < len(t.hosts) && t.hosts[i].addr == dst {
		return t.hosts[i].ifindex
	}
	for i := range t.nets {
		if r := &t.nets[i]; dst&r.mask == r.net {
			return r.Ifindex
		}
	}
	return -1
}

// Len returns the number of installed routes.
func (t *RoutingTable) Len() int { return len(t.hosts) + len(t.nets) }
