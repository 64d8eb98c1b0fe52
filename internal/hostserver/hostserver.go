// Package hostserver implements HydraNet host servers: hosts that are
// "servers-of-servers" (paper Section 3). A host server can host virtual
// hosts — service replicas reachable under the IP address of their origin
// host — and decapsulates IP-in-IP traffic tunneled to it by redirectors.
package hostserver

import (
	"slices"

	"hydranet/internal/ipv4"
)

// HostServer decorates a node's IP stack with virtual-host management and
// tunnel decapsulation.
type HostServer struct {
	ip *ipv4.Stack
	// vhosts holds a virtual host's address once per reference: one or two
	// on any host server, so a scan beats a hash.
	vhosts  []ipv4.Addr
	vhosts0 [2]ipv4.Addr // vhosts' backing while there are at most two
	inner   ipv4.Packet  // scratch for the decapsulated datagram; valid during DeliverIP only

	// Stats
	decapsulated uint64
	badTunnel    uint64
	notVirtual   uint64
}

var _ ipv4.ProtocolHandler = (*HostServer)(nil)

// New equips the given IP stack as a HydraNet host server. It registers
// itself as the IP-in-IP (protocol 4) handler.
func New(ip *ipv4.Stack) *HostServer { return new(HostServer).Init(ip) }

// Init is New for a HostServer embedded by value, which must not be copied
// afterwards.
func (h *HostServer) Init(ip *ipv4.Stack) *HostServer {
	h.ip, h.vhosts = ip, h.vhosts0[:0]
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
	h.vhosts = append(h.vhosts, addr)
	h.ip.AddLocalAddr(addr)
}

// ReleaseVHost drops one reference to a virtual host, withdrawing the
// address when the last reference goes.
func (h *HostServer) ReleaseVHost(addr ipv4.Addr) {
	i := slices.Index(h.vhosts, addr)
	if i < 0 {
		return
	}
	if h.vhosts = slices.Delete(h.vhosts, i, i+1); !h.HasVHost(addr) {
		// A replica may run on the service's origin host, where the
		// "virtual" host is the machine's own interface address — never
		// withdraw that.
		if !h.ip.IsInterfaceAddr(addr) {
			h.ip.RemoveLocalAddr(addr)
		}
	}
}

// HasVHost reports whether addr is currently hosted here.
func (h *HostServer) HasVHost(addr ipv4.Addr) bool { return slices.Contains(h.vhosts, addr) }

// VHosts returns the hosted virtual-host addresses, ascending.
func (h *HostServer) VHosts() []ipv4.Addr {
	out := slices.Clone(h.vhosts)
	slices.Sort(out)
	return slices.Compact(out)
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
