// Package frame provides a pooled, headroom-aware buffer arena for the
// simulation fast path.
//
// The hot path in a HydraNet-FT run materializes each TCP segment several
// times: once in tcp.Segment.Marshal, once in ipv4.Packet.Marshal, and once
// or twice more when the redirector tunnels it IP-in-IP. A Buf removes all
// of those copies: the transport marshals its payload once into a buffer
// with Headroom bytes reserved in front, and each lower layer prepends its
// header in place with Prepend. When the fabric finishes delivering the
// frame, the buffer returns to the pool.
//
// Ownership rules (enforced by convention, checked by poison mode, which is
// on in every test binary and off everywhere else):
//
//   - Whoever calls Pool.Get owns the Buf until ownership is handed off.
//   - Passing a Buf to netsim.Node.SendFrame transfers ownership to the
//     fabric, which guarantees exactly-once Release on every path (normal
//     delivery, MTU drop, queue drop, random loss, dead node).
//   - A FrameHandler (and everything it calls synchronously) may read the
//     frame's bytes during HandleFrame, but must copy anything it retains
//     past return: the fabric releases the buffer immediately afterwards.
//
// A pool that runs dry allocates a slab: slabBufs buffers of one size class
// and one backing array they share, each buffer's bytes capped at its class
// size so that no buffer can reach its neighbour. The headers of each class's
// first slab live in the Pool itself, so a fresh Net pays one object for a
// class's first slab and two for each later one, never one per buffer.
// Released buffers wait on a per-class list chained through the buffers
// themselves, so recycling never allocates either.
//
// The simulator is single-threaded per scheduler, so the pool needs no
// locking; one Pool must never be shared across schedulers.
package frame

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// Headroom is the number of bytes reserved in front of every pooled buffer:
// enough for an IPv4 header (20 B) plus an outer IP-in-IP encapsulation
// header (20 B), so a marshalled TCP segment can reach the wire without
// ever being copied.
const Headroom = 40

// classSizes are the backing-array capacities (excluding nothing — Headroom
// comes out of the class size). 4096 comfortably covers an Ethernet MTU
// frame plus headroom; larger requests fall back to exact-size unpooled
// allocations.
var classSizes = [...]int{128, 256, 512, 1024, 2048, 4096}

// slabBufs is how many buffers of one class a pool miss allocates at once.
const slabBufs = 16

// Buf is one frame buffer. The payload occupies data[off:end]; bytes before
// off are available headroom for Prepend.
type Buf struct {
	data []byte
	off  int
	end  int
	pool *Pool
	next *Buf // the class's next free buffer while this one is free
	cls  int8 // size-class index; -1 for oversize unpooled buffers
	free bool
}

// Bytes returns the current frame contents. The slice is valid only until
// Release.
func (b *Buf) Bytes() []byte { return b.data[b.off:b.end] }

// Len returns the current frame length.
func (b *Buf) Len() int { return b.end - b.off }

// Prepend grows the frame by n bytes at the front and returns the new
// contents. The new bytes are uninitialized. It panics if the buffer was
// allocated with insufficient headroom — that is a programming error, not a
// runtime condition.
func (b *Buf) Prepend(n int) []byte {
	if n > b.off {
		panic(fmt.Sprintf("frame: Prepend(%d) exceeds headroom %d", n, b.off))
	}
	b.off -= n
	return b.data[b.off:b.end]
}

// Release returns the buffer to its pool. Releasing twice panics: a double
// release means two owners, which is exactly the corruption pooling can
// introduce. Release on a nil Buf is a no-op.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	if b.free {
		panic("frame: double Release")
	}
	b.free = true
	p := b.pool
	if p == nil {
		return
	}
	if p.poison.Load() {
		Scribble(b.data)
	}
	p.puts++
	if b.cls >= 0 {
		b.next, p.free[b.cls] = p.free[b.cls], b
	}
}

// Pool hands out Bufs by size class and recycles them on Release. It is not
// safe for concurrent use; every scheduler owns its own pool. The one
// exception is the poison flag: a test harness may flip it from outside the
// scheduler goroutine (e.g. between parallel sweep shards), so it is
// atomic.
type Pool struct {
	free   [len(classSizes)]*Buf          // released buffers, most recent first
	fresh  [len(classSizes)][]Buf         // the current slab's never-used buffers
	slab0  [len(classSizes)][slabBufs]Buf // each class's first slab's headers
	poison atomic.Bool

	gets, puts, misses uint64
}

// NewPool returns an empty pool. It poisons in test binaries and nowhere
// else, so every test checks frame ownership and production never pays.
func NewPool() *Pool { return new(Pool).Init() }

// Init readies a zero Pool embedded by value in a larger struct, as NewPool
// would. It must not be copied afterwards: its first slabs' headers are its
// own.
func (p *Pool) Init() *Pool {
	p.poison.Store(testing.Testing())
	return p
}

// SetPoison makes Release overwrite returned buffers with 0xDB, turning
// "read after release" bugs into loud, deterministic failures instead of
// silent heisenbugs. NewPool already turns it on in tests; a benchmark
// turns it off to time the production path. Unlike the rest of the pool it
// is safe to call from any goroutine.
func (p *Pool) SetPoison(on bool) { p.poison.Store(on) }

// Poisoned reports whether poison mode is on. Layers that parse frames into
// reused scratch structs scribble those too when it is, extending the
// read-after-release check from frame bytes to parsed headers.
func (p *Pool) Poisoned() bool { return p.poison.Load() }

// Stats returns cumulative Get calls, Release calls, and Gets that missed
// the free lists: one per buffer handed out for the first time, whether its
// slab was allocated for it or before it.
func (p *Pool) Stats() (gets, puts, misses uint64) { return p.gets, p.puts, p.misses }

// Outstanding returns the frames currently checked out (Gets minus
// Releases) — what the invariant monitor's frame-conservation check reads.
// A steady climb under constant load means a frame leak.
func (p *Pool) Outstanding() int { return int(p.gets - p.puts) }

// Get returns a Buf holding n uninitialized payload bytes with Headroom
// bytes reserved in front. Callers own the Buf until they Release it or
// hand it to the fabric.
func (p *Pool) Get(n int) *Buf {
	p.gets++
	need := n + Headroom
	for ci, size := range classSizes {
		if need > size {
			continue
		}
		b := p.free[ci]
		if b != nil {
			p.free[ci], b.next = b.next, nil
		} else {
			b = p.fromSlab(ci, size)
		}
		b.off = Headroom
		b.end = Headroom + n
		b.free = false
		return b
	}
	// Oversize: exact allocation, never pooled.
	p.misses++
	return &Buf{data: make([]byte, need), off: Headroom, end: Headroom + n, pool: p, cls: -1}
}

// fromSlab hands out the class's next never-used buffer, allocating a new
// slab when the current one is spent. Every buffer it returns is a miss.
func (p *Pool) fromSlab(ci, size int) *Buf {
	p.misses++
	if len(p.fresh[ci]) == 0 {
		bufs := p.slab0[ci][:]
		if bufs[0].pool != nil {
			bufs = make([]Buf, slabBufs)
		}
		mem := make([]byte, slabBufs*size)
		for i := range bufs {
			bufs[i] = Buf{data: mem[i*size : (i+1)*size : (i+1)*size], pool: p, cls: int8(ci)}
		}
		p.fresh[ci] = bufs
	}
	b := &p.fresh[ci][0]
	p.fresh[ci] = p.fresh[ci][1:]
	return b
}

// Scribble fills b with 0xDB, the byte poison mode leaves in whatever was
// given back. It writes one byte and then doubles what is written with copy:
// a byte-at-a-time loop over a socket buffer's 32 KiB array took most of a
// test binary's CPU.
func Scribble(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = 0xDB
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// GetCopy returns a Buf holding a copy of data, with the usual Headroom in
// front.
func (p *Pool) GetCopy(data []byte) *Buf {
	b := p.Get(len(data))
	copy(b.data[b.off:b.end], data)
	return b
}
