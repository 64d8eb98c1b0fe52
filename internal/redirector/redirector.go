// Package redirector implements HydraNet redirectors: routers that
// intercept packets destined to replicated services and tunnel them to host
// servers with IP-in-IP encapsulation (paper Sections 3 and 4.2).
//
// For plainly replicated (scaling) services the redirector forwards each
// packet to the nearest host server running a replica. For fault-tolerant
// services it performs a simple non-reliable multicast: one copy to the
// primary and one to each backup. Redirectors take no part in reliable
// delivery — that is the ft-TCP machinery on the host servers.
package redirector

import (
	"cmp"
	"encoding/binary"
	"slices"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/obs"
)

// ServiceKey identifies a redirected transport-level service access point.
type ServiceKey = inet.Endpoint

// Target is one host server running a replica, with a routing metric used
// for nearest-replica selection in scaling mode.
type Target struct {
	Host   ipv4.Addr
	Metric int
}

// Entry is one redirector-table row: a fault-tolerant service's chain, or
// a scaling service's targets.
type Entry struct {
	// Chain is the FT replica set in chain order, S0 (the primary) first —
	// the management daemon's chain, written only by SetFTReplicas. Empty
	// in scaling mode.
	Chain []ipv4.Addr
	// Targets are the scaling-mode replicas.
	Targets []Target
	chain0  [3]ipv4.Addr // Chain's backing up to three replicas
}

// Stats counts redirector activity.
type Stats struct {
	Redirected      uint64 `json:"redirected"`       // packets matched and tunneled (scaling mode)
	Multicast       uint64 `json:"multicast"`        // packets matched in FT mode
	MulticastCopies uint64 `json:"multicast_copies"` // tunnel copies emitted in FT mode
	PassedThrough   uint64 `json:"passed_through"`   // packets inspected but not matched
	TunnelErrors    uint64 `json:"tunnel_errors"`    // copies dropped for lack of a route
}

// EncapTap observes each packet the redirector tunnels, just before
// encapsulation: inner is the intercepted (pre-encap) packet and host the
// tunnel destination. The packet's Payload/Wire slices alias the fabric's
// frame buffer — valid only during the call, copy to retain. The tap sees
// one call per tunnel copy (so an FT multicast to N replicas taps N times).
type EncapTap func(inner *ipv4.Packet, host ipv4.Addr)

// Redirector attaches to a forwarding IP stack and owns its redirector
// table.
type Redirector struct {
	ip *ipv4.Stack
	// table is sorted by service Key. A redirector serves a handful of
	// services: the first two rows and the first entry live here.
	table  []service
	table0 [2]service
	entry0 Entry
	stats  Stats
	bus    *obs.Bus
	tap    EncapTap
	heard  HeardHook
}

// service is one row of the table: a service access point and its entry.
type service struct {
	key inet.Key
	e   *Entry
}

// HeardHook observes every packet the redirector forwards, with the host the
// packet comes from (see sender).
type HeardHook interface{ HeardFrom(member ipv4.Addr) }

// New installs a redirector on the given stack. The stack must have
// forwarding enabled to see transit traffic.
func New(ip *ipv4.Stack) *Redirector { return new(Redirector).Init(ip) }

// Init is New for a Redirector embedded by value, which must not be copied
// afterwards.
func (r *Redirector) Init(ip *ipv4.Stack) *Redirector {
	r.ip, r.table = ip, r.table0[:0]
	ip.SetForwardHook((*interceptor)(r))
	return r
}

// IP returns the stack the redirector is attached to.
func (r *Redirector) IP() *ipv4.Stack { return r.ip }

// Stats returns a snapshot of activity counters.
func (r *Redirector) Stats() Stats { return r.stats }

// SetBus attaches an observability event bus for multicast, redirect and
// tunnel-error events. A nil bus (the default) disables all emission.
func (r *Redirector) SetBus(b *obs.Bus) { r.bus = b }

// SetEncapTap installs (or, with nil, removes) the encap-path tap. The
// disabled cost is one pointer test per tunnel copy.
func (r *Redirector) SetEncapTap(t EncapTap) { r.tap = t }

// SetHeardHook installs (or, with nil, removes) the observer of forwarded
// packets. The disabled cost is one pointer test per forwarded packet.
func (r *Redirector) SetHeardHook(h HeardHook) { r.heard = h }

func (r *Redirector) nodeName() string { return r.ip.Node().Name() }

// search returns where key is, or would go, in the table.
func (r *Redirector) search(key inet.Key) (int, bool) {
	return slices.BinarySearchFunc(r.table, key, func(s service, k inet.Key) int { return cmp.Compare(s.key, k) })
}

// Remove deletes a table entry.
func (r *Redirector) Remove(key ServiceKey) {
	if i, ok := r.search(key.Key()); ok {
		r.table = slices.Delete(r.table, i, i+1)
	}
}

// Lookup returns the entry for key, or nil.
func (r *Redirector) Lookup(key ServiceKey) *Entry {
	if i, ok := r.search(key.Key()); ok {
		return r.table[i].e
	}
	return nil
}

// NumServices returns the number of installed table entries — the
// redirector table-size gauge.
func (r *Redirector) NumServices() int { return len(r.table) }

// entry returns key's entry, making an empty one if there is none.
func (r *Redirector) entry(key ServiceKey) *Entry {
	i, ok := r.search(key.Key())
	if ok {
		return r.table[i].e
	}
	e := &r.entry0
	if e.Chain != nil { // used before: a caller of Lookup may hold it
		e = new(Entry)
	}
	e.Chain = e.chain0[:0]
	r.table = slices.Insert(r.table, i, service{key: key.Key(), e: e})
	return e
}

// AddTarget adds a scaling-mode replica for key.
func (r *Redirector) AddTarget(key ServiceKey, t Target) {
	e := r.entry(key)
	e.Targets = append(e.Targets, t)
}

// SetFTReplicas installs or updates the FT chain for key: primary, then the
// backups in chain order. It copies them into the entry's own backing, so
// the caller may reuse backups, and a chain no longer than the entry's
// last allocates nothing.
func (r *Redirector) SetFTReplicas(key ServiceKey, primary ipv4.Addr, backups []ipv4.Addr) {
	e := r.entry(key)
	e.Chain = append(append(e.Chain[:0], primary), backups...)
}

// RemoveTarget removes a scaling-mode replica for key (voluntary leave).
func (r *Redirector) RemoveTarget(key ServiceKey, host ipv4.Addr) {
	e := r.Lookup(key)
	if e == nil {
		return
	}
	if i := slices.IndexFunc(e.Targets, func(t Target) bool { return t.Host == host }); i >= 0 {
		e.Targets = slices.Delete(e.Targets, i, i+1)
	}
	if len(e.Chain) == 0 && len(e.Targets) == 0 {
		r.Remove(key)
	}
}

// A *Redirector converted to interceptor is its stack's ipv4.ForwardHook.
type interceptor Redirector

// Intercept inspects transit packets and consumes those matching the
// redirector table.
func (i *interceptor) Intercept(p *ipv4.Packet) bool {
	r := (*Redirector)(i)
	// Ports live in the first 4 bytes of the transport header; only first
	// fragments carry them. TCP segments never exceed the MSS in this
	// stack, so in practice inner packets arrive unfragmented.
	ports := (p.Proto == ipv4.ProtoTCP || p.Proto == ipv4.ProtoUDP) && p.FragOff == 0 && len(p.Payload) >= 4
	if r.heard != nil {
		r.heard.HeardFrom(r.sender(p, ports))
	}
	if !ports {
		return false
	}
	key := ServiceKey{Addr: p.Dst, Port: binary.BigEndian.Uint16(p.Payload[2:])}
	e := r.Lookup(key)
	if e == nil {
		r.stats.PassedThrough++
		return false
	}
	if len(e.Chain) > 0 {
		r.stats.Multicast++
		if b := r.bus; b.Enabled(obs.KindMulticast) {
			// Conn identifies the client flow and Seq carries the raw TCP
			// sequence number: because ft-TCP derives the ISS from the
			// 4-tuple, the same raw seq names the same client byte at every
			// replica, so this multicast lines up with the replicas'
			// deposit and ack events.
			ev := obs.Event{
				Kind: obs.KindMulticast, Node: r.nodeName(),
				Service: key,
				Conn:    inet.Endpoint{Addr: p.Src, Port: binary.BigEndian.Uint16(p.Payload)},
				Size:    len(e.Chain),
			}
			if p.Proto == ipv4.ProtoTCP && len(p.Payload) >= 13 {
				// Seq is stamped only on data-bearing segments: pure ACKs
				// would otherwise pre-claim the next data segment's sequence
				// number.
				dataOff := int(p.Payload[12]>>4) * 4
				if dataOff >= 20 && len(p.Payload) > dataOff {
					ev.Seq = uint64(binary.BigEndian.Uint32(p.Payload[4:]))
				}
			}
			b.Publish(ev)
		}
		// Chain order: primary first, then the backups.
		for _, host := range e.Chain {
			r.tunnel(p, host)
			r.stats.MulticastCopies++
		}
		return true
	}
	if t := nearest(e.Targets); t != nil {
		r.stats.Redirected++
		if b := r.bus; b.Enabled(obs.KindRedirect) {
			b.Publish(obs.Event{
				Kind: obs.KindRedirect, Node: r.nodeName(),
				Service: key, Host: t.Host,
			})
		}
		r.tunnel(p, t.Host)
		return true
	}
	r.stats.PassedThrough++
	return false
}

// sender names the host a forwarded packet comes from: its source address,
// or, for a packet sent as a fault-tolerant service (ports: it carries
// them), the service's primary — a backup transmits nothing as the service
// until it is promoted.
func (r *Redirector) sender(p *ipv4.Packet, ports bool) ipv4.Addr {
	if ports {
		key := ServiceKey{Addr: p.Src, Port: binary.BigEndian.Uint16(p.Payload)}
		if e := r.Lookup(key); e != nil && len(e.Chain) > 0 {
			return e.Chain[0]
		}
	}
	return p.Src
}

func nearest(targets []Target) *Target {
	var best *Target
	for i := range targets {
		if best == nil || targets[i].Metric < best.Metric {
			best = &targets[i]
		}
	}
	return best
}

// tunnel wraps the packet in IP-in-IP and routes it to the host server.
// SendEncap reuses the intercepted packet's wire bytes when the result fits
// the MTU: one copy into a pooled buffer, TTL patched incrementally, outer
// header prepended in place.
func (r *Redirector) tunnel(inner *ipv4.Packet, host ipv4.Addr) {
	if tap := r.tap; tap != nil {
		tap(inner, host)
	}
	if err := r.ip.SendEncap(inner, host); err != nil {
		r.noteTunnelError(host, err.Error())
	}
}

func (r *Redirector) noteTunnelError(host ipv4.Addr, why string) {
	r.stats.TunnelErrors++
	if b := r.bus; b.Enabled(obs.KindTunnelError) {
		b.Publish(obs.Event{
			Kind: obs.KindTunnelError, Node: r.nodeName(),
			Host: host, Cause: why,
		})
	}
}
