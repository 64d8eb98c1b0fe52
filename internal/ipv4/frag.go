package ipv4

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hydranet/internal/sim"
)

// ErrFragNeeded reports a datagram that needs fragmentation but carries the
// don't-fragment flag; ICMP converts it into "fragmentation needed".
var ErrFragNeeded = errors.New("ipv4: fragmentation needed but DF set")

// Fragment splits a datagram into fragments whose marshaled size fits mtu.
// A datagram that already fits is returned unchanged (same slice). Datagrams
// with DontFrag set that do not fit produce an error, mirroring the kernel's
// ICMP "fragmentation needed" path.
func Fragment(p *Packet, mtu int) ([]*Packet, error) {
	if HeaderLen+len(p.Payload) <= mtu {
		return []*Packet{p}, nil
	}
	return fragment(p, mtu)
}

// fragment splits a datagram that does not fit mtu. It never returns p
// itself, so callers' packets stay off the heap.
func fragment(p *Packet, mtu int) ([]*Packet, error) {
	if p.DontFrag {
		return nil, fmt.Errorf("%w: datagram %d→%s", ErrFragNeeded, p.ID, p.Dst)
	}
	chunk := (mtu - HeaderLen) &^ 7 // fragment payloads are 8-byte aligned
	if chunk <= 0 {
		return nil, fmt.Errorf("ipv4: mtu %d too small to fragment", mtu)
	}
	var frags []*Packet
	for off := 0; off < len(p.Payload); off += chunk {
		end := off + chunk
		more := true
		if end >= len(p.Payload) {
			end = len(p.Payload)
			more = p.MoreFrag // preserve MF when re-fragmenting a middle fragment
		}
		f := &Packet{Header: p.Header, Payload: p.Payload[off:end]}
		f.FragOff = p.FragOff + off
		f.MoreFrag = more
		frags = append(frags, f)
	}
	return frags, nil
}

// ReassemblyTimeout is how long a partial datagram is held before its
// fragments are discarded.
const ReassemblyTimeout = 30 * time.Second

type fragKey struct {
	src, dst Addr
	proto    uint8
	id       uint16
}

type fragHole struct {
	off  int
	data []byte
	more bool
}

type fragEntry struct {
	parts   []fragHole
	expires sim.Event
}

// Reassembler collects fragments and produces whole datagrams. It is
// per-stack state, driven by the stack's scheduler for timeouts.
type Reassembler struct {
	sched   *sim.Scheduler
	pending map[fragKey]*fragEntry

	// Expired counts datagrams dropped by the reassembly timeout.
	Expired uint64
}

// NewReassembler returns an empty reassembler.
func NewReassembler(sched *sim.Scheduler) *Reassembler {
	return &Reassembler{sched: sched, pending: make(map[fragKey]*fragEntry)}
}

// Add ingests a fragment (or whole datagram). It returns the reassembled
// datagram when complete, or nil while fragments are still outstanding.
func (r *Reassembler) Add(p *Packet) *Packet {
	if p.FragOff == 0 && !p.MoreFrag {
		return p // not fragmented
	}
	key := fragKey{src: p.Src, dst: p.Dst, proto: p.Proto, id: p.ID}
	e := r.pending[key]
	if e == nil {
		e = &fragEntry{}
		e.expires = r.sched.After(ReassemblyTimeout, func() {
			delete(r.pending, key)
			r.Expired++
		})
		r.pending[key] = e
	}
	// The fragment payload aliases a pooled fabric frame that is recycled
	// once this delivery event returns, while reassembly state lives until
	// the datagram completes or times out — copy it.
	data := append([]byte(nil), p.Payload...)
	// Duplicate fragments (retransmissions) replace rather than accumulate.
	replaced := false
	for i := range e.parts {
		if e.parts[i].off == p.FragOff {
			e.parts[i] = fragHole{off: p.FragOff, data: data, more: p.MoreFrag}
			replaced = true
			break
		}
	}
	if !replaced {
		e.parts = append(e.parts, fragHole{off: p.FragOff, data: data, more: p.MoreFrag})
	}
	whole := assemble(e.parts)
	if whole == nil {
		return nil
	}
	e.expires.Cancel()
	delete(r.pending, key)
	out := &Packet{Header: p.Header, Payload: whole}
	out.FragOff = 0
	out.MoreFrag = false
	out.TotalLen = HeaderLen + len(whole)
	return out
}

// assemble returns the contiguous payload if parts cover [0, end] with a
// final no-more-fragments part, else nil.
func assemble(parts []fragHole) []byte {
	sort.Slice(parts, func(i, j int) bool { return parts[i].off < parts[j].off })
	next := 0
	sawLast := false
	total := 0
	for _, p := range parts {
		if p.off > next {
			return nil // hole
		}
		if end := p.off + len(p.data); end > next {
			next = end
		}
		if !p.more {
			sawLast = true
			total = p.off + len(p.data)
		}
	}
	if !sawLast || next < total {
		return nil
	}
	out := make([]byte, total)
	for _, p := range parts {
		copy(out[p.off:], p.data)
	}
	return out
}
