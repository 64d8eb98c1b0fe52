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

// Entry is one redirector-table row.
type Entry struct {
	// FT selects fault-tolerant multicast mode; otherwise scaling mode.
	FT bool
	// Primary and Backups are the FT replica set, in chain order
	// S0 (primary) first.
	Primary ipv4.Addr
	Backups []ipv4.Addr
	// Targets are the scaling-mode replicas.
	Targets []Target
}

// numReplicas counts the hosts the entry redirects to in FT mode.
func (e *Entry) numReplicas() int {
	n := len(e.Backups)
	if e.Primary != 0 {
		n++
	}
	return n
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
	ip    *ipv4.Stack
	table map[inet.Key]*Entry
	stats Stats
	bus   *obs.Bus
	tap   EncapTap
	heard func(member ipv4.Addr)
}

// New installs a redirector on the given stack. The stack must have
// forwarding enabled to see transit traffic.
func New(ip *ipv4.Stack) *Redirector {
	r := &Redirector{ip: ip, table: make(map[inet.Key]*Entry)}
	ip.SetForwardHook(r.intercept)
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

// SetHeardHook installs (or, with nil, removes) an observer of every packet
// the redirector forwards, called with the host the packet comes from (see
// sender). The disabled cost is one pointer test per forwarded packet.
func (r *Redirector) SetHeardHook(fn func(member ipv4.Addr)) { r.heard = fn }

func (r *Redirector) nodeName() string { return r.ip.Node().Name() }

// Install adds or replaces a table entry.
func (r *Redirector) Install(key ServiceKey, e *Entry) {
	r.table[key.Key()] = e
}

// Remove deletes a table entry.
func (r *Redirector) Remove(key ServiceKey) {
	delete(r.table, key.Key())
}

// Lookup returns the entry for key, or nil.
func (r *Redirector) Lookup(key ServiceKey) *Entry {
	return r.table[key.Key()]
}

// Services lists the installed service keys (sorted, for stable output).
func (r *Redirector) Services() []ServiceKey {
	keys := inet.SortedKeys(r.table)
	out := make([]ServiceKey, len(keys))
	for i, k := range keys {
		out[i] = inet.EndpointOf(k)
	}
	return out
}

// NumServices returns the number of installed table entries — the
// redirector table-size gauge, read per sampling tick without the sort
// Services pays for.
func (r *Redirector) NumServices() int { return len(r.table) }

// AddTarget adds a scaling-mode replica for key, creating the entry if
// needed.
func (r *Redirector) AddTarget(key ServiceKey, t Target) {
	e := r.table[key.Key()]
	if e == nil {
		e = &Entry{}
		r.table[key.Key()] = e
	}
	e.Targets = append(e.Targets, t)
}

// SetFTReplicas installs or updates the FT replica set for key, primary
// first.
func (r *Redirector) SetFTReplicas(key ServiceKey, primary ipv4.Addr, backups []ipv4.Addr) {
	e := r.table[key.Key()]
	if e == nil {
		e = &Entry{}
		r.table[key.Key()] = e
	}
	e.FT = true
	e.Primary = primary
	e.Backups = append([]ipv4.Addr(nil), backups...)
}

// RemoveTarget removes a scaling-mode replica for key (voluntary leave).
func (r *Redirector) RemoveTarget(key ServiceKey, host ipv4.Addr) {
	e := r.table[key.Key()]
	if e == nil {
		return
	}
	for i, t := range e.Targets {
		if t.Host == host {
			e.Targets = append(e.Targets[:i], e.Targets[i+1:]...)
			break
		}
	}
	if !e.FT && len(e.Targets) == 0 {
		delete(r.table, key.Key())
	}
}

// RemoveReplica removes a failed host from an FT entry. If the primary was
// removed, the first backup is promoted in the table. It returns the new
// primary (zero if the entry emptied out).
func (r *Redirector) RemoveReplica(key ServiceKey, host ipv4.Addr) ipv4.Addr {
	e := r.table[key.Key()]
	if e == nil || !e.FT {
		return 0
	}
	if e.Primary == host {
		if len(e.Backups) == 0 {
			e.Primary = 0
			return 0
		}
		e.Primary = e.Backups[0]
		e.Backups = append([]ipv4.Addr(nil), e.Backups[1:]...)
		return e.Primary
	}
	for i, b := range e.Backups {
		if b == host {
			e.Backups = append(e.Backups[:i], e.Backups[i+1:]...)
			break
		}
	}
	return e.Primary
}

// intercept is the forward-path hook: it inspects transit packets and
// consumes those matching the redirector table.
func (r *Redirector) intercept(p *ipv4.Packet) bool {
	if r.heard != nil {
		r.heard(r.sender(p))
	}
	// Ports live in the first 4 bytes of the transport header; only
	// first fragments carry them. TCP segments never exceed the MSS in
	// this stack, so in practice inner packets arrive unfragmented.
	if p.Proto != ipv4.ProtoTCP && p.Proto != ipv4.ProtoUDP {
		return false
	}
	if p.FragOff != 0 || len(p.Payload) < 4 {
		return false
	}
	dstPort := uint16(p.Payload[2])<<8 | uint16(p.Payload[3])
	key := ServiceKey{Addr: p.Dst, Port: dstPort}
	e := r.table[key.Key()]
	if e == nil {
		r.stats.PassedThrough++
		return false
	}
	if e.FT {
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
				Conn:    inet.Endpoint{Addr: p.Src, Port: uint16(p.Payload[0])<<8 | uint16(p.Payload[1])},
				Size:    e.numReplicas(),
			}
			if p.Proto == ipv4.ProtoTCP && len(p.Payload) >= 13 {
				// Seq is stamped only on data-bearing segments: pure ACKs
				// would otherwise pre-claim the next data segment's sequence
				// number.
				dataOff := int(p.Payload[12]>>4) * 4
				if dataOff >= 20 && len(p.Payload) > dataOff {
					ev.Seq = uint64(uint32(p.Payload[4])<<24 | uint32(p.Payload[5])<<16 |
						uint32(p.Payload[6])<<8 | uint32(p.Payload[7]))
				}
			}
			b.Publish(ev)
		}
		// Chain order: primary first, then the backups.
		if e.Primary != 0 {
			r.tunnel(p, e.Primary)
			r.stats.MulticastCopies++
		}
		for _, host := range e.Backups {
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
// or, for a packet sent as a fault-tolerant service, the service's primary —
// a backup transmits nothing as the service until it is promoted.
func (r *Redirector) sender(p *ipv4.Packet) ipv4.Addr {
	if (p.Proto == ipv4.ProtoTCP || p.Proto == ipv4.ProtoUDP) && p.FragOff == 0 && len(p.Payload) >= 2 {
		srcPort := uint16(p.Payload[0])<<8 | uint16(p.Payload[1])
		if e := r.table[ServiceKey{Addr: p.Src, Port: srcPort}.Key()]; e != nil && e.FT && e.Primary != 0 {
			return e.Primary
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
