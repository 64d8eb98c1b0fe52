// Package hostserver implements HydraNet host servers: hosts that are
// "servers-of-servers" (paper Section 3). A host server can host virtual
// hosts — service replicas reachable under the IP address of their origin
// host — and decapsulates IP-in-IP traffic tunneled to it by redirectors.
package hostserver

import (
	"sort"

	"hydranet/internal/ipv4"
)

// HostServer decorates a node's IP stack with virtual-host management and
// tunnel decapsulation.
type HostServer struct {
	ip     *ipv4.Stack
	vhosts map[ipv4.Addr]int // reference counts per virtual host address
	inner  ipv4.Packet       // scratch for the decapsulated datagram; valid during DeliverIP only

	// Stats
	decapsulated uint64
	badTunnel    uint64
	notVirtual   uint64
}

var _ ipv4.ProtocolHandler = (*HostServer)(nil)

// New equips the given IP stack as a HydraNet host server. It registers
// itself as the IP-in-IP (protocol 4) handler.
func New(ip *ipv4.Stack) *HostServer { return new(HostServer).Init(ip) }

// Init is New for a HostServer embedded by value. The virtual-host table is
// made by the first VHost.
func (h *HostServer) Init(ip *ipv4.Stack) *HostServer {
	h.ip = ip
	ip.RegisterProto(ipv4.ProtoIPIP, h)
	return h
}

// IP returns the underlying IP stack.
func (h *HostServer) IP() *ipv4.Stack { return h.ip }

// VHost associates a virtual host with this host server — the equivalent of
// the paper's v_host(ip_address) system call. Packets for addr delivered
// here (by tunnel) reach local sockets. Multiple services may share a
// virtual host; calls are reference-counted.
func (h *HostServer) VHost(addr ipv4.Addr) {
	if h.vhosts == nil {
		h.vhosts = make(map[ipv4.Addr]int)
	}
	h.vhosts[addr]++
	h.ip.AddLocalAddr(addr)
}

// ReleaseVHost drops one reference to a virtual host, withdrawing the
// address when the last reference goes.
func (h *HostServer) ReleaseVHost(addr ipv4.Addr) {
	if h.vhosts[addr] == 0 {
		return
	}
	h.vhosts[addr]--
	if h.vhosts[addr] == 0 {
		delete(h.vhosts, addr)
		// A replica may run on the service's origin host, where the
		// "virtual" host is the machine's own interface address — never
		// withdraw that.
		if !h.ip.IsInterfaceAddr(addr) {
			h.ip.RemoveLocalAddr(addr)
		}
	}
}

// HasVHost reports whether addr is currently hosted here.
func (h *HostServer) HasVHost(addr ipv4.Addr) bool { return h.vhosts[addr] > 0 }

// VHosts returns the hosted virtual-host addresses, ascending.
func (h *HostServer) VHosts() []ipv4.Addr {
	out := make([]ipv4.Addr, 0, len(h.vhosts))
	for a := range h.vhosts { //hydralint:nondeterministic order normalized by the sort below
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns decapsulated, malformed-tunnel and non-virtual-host drops.
func (h *HostServer) Stats() (decapsulated, badTunnel, notVirtual uint64) {
	return h.decapsulated, h.badTunnel, h.notVirtual
}

// DeliverIP implements ipv4.ProtocolHandler for protocol 4 (IP-in-IP): it
// unwraps the inner datagram and, if it targets a hosted virtual host,
// injects it into local delivery.
func (h *HostServer) DeliverIP(outer *ipv4.Packet) {
	inner := &h.inner
	if err := inner.Unmarshal(outer.Payload); err != nil {
		h.badTunnel++
		return
	}
	if !h.ip.IsLocal(inner.Dst) {
		h.notVirtual++
		return
	}
	h.decapsulated++
	h.ip.InjectLocal(inner)
	if h.ip.Poisoned() {
		inner.Scribble()
	}
}
