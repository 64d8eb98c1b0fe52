// Package inet holds the value types every layer shares: the IPv4 address,
// the address:port endpoint, and the RFC 6298 RTO estimator of both
// reliable transports, tcp and rmp. It imports nothing from this module, so
// obs — which netsim and therefore ipv4 import — can carry the addresses in
// events.
package inet

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// Broadcast is the limited broadcast address 255.255.255.255.
const Broadcast Addr = 0xffffffff

// AddrFrom4 builds an address from its four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses dotted-quad notation ("192.20.225.20").
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("inet: %q is not dotted-quad", s)
	}
	var out Addr
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("inet: bad octet %q in %q", p, s)
		}
		out = out<<8 | Addr(v)
	}
	return out, nil
}

// MustParseAddr is ParseAddr that panics on error, for literals in tests and
// topology builders.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address in dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Endpoint is an address:port pair: one end of a TCP connection or UDP
// exchange, or a service access point. It is comparable, so it keys maps
// as a value.
type Endpoint struct {
	Addr Addr
	Port uint16
}

// String renders addr:port.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Key packs an endpoint into one integer, Addr<<16 | Port: the key of every
// endpoint-indexed map on the frame path. An Endpoint has two bytes of
// padding, so the runtime hashes it field by field; a Key takes the map's
// 64-bit fast path, and a pair of Keys is 16 bytes hashed in one call.
// Numeric Key order is address-then-port order, the order of every walk over
// connections or services that has side effects (a reset, a reconfiguration,
// a transmission): map order would leak into the frame order of a replay.
type Key uint64

// Key returns e's map key.
func (e Endpoint) Key() Key { return Key(e.Addr)<<16 | Key(e.Port) }

// UnmarshalText parses "a.b.c.d:port", the form String renders, so that an
// endpoint exported as text (an event's JSON) reads back as a value.
func (e *Endpoint) UnmarshalText(text []byte) error {
	s := string(text)
	colon := strings.LastIndexByte(s, ':')
	if colon < 0 {
		return fmt.Errorf("inet: %q has no :port", s)
	}
	addr, err := ParseAddr(s[:colon])
	if err != nil {
		return err
	}
	port, err := strconv.ParseUint(s[colon+1:], 10, 16)
	if err != nil {
		return fmt.Errorf("inet: bad port in %q", s)
	}
	*e = Endpoint{Addr: addr, Port: uint16(port)}
	return nil
}
