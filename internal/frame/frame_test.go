package frame

import "testing"

func TestGetReuse(t *testing.T) {
	p := NewPool()
	b := p.Get(100)
	if b.Len() != 100 {
		t.Fatalf("Len = %d, want 100", b.Len())
	}
	if b.off != Headroom {
		t.Fatalf("Headroom = %d, want %d", b.off, Headroom)
	}
	b.Release()
	b2 := p.Get(150) // same 256 B class as the first request
	if b2 != b {
		t.Fatal("pool did not reuse the released buffer")
	}
	if b2.Len() != 150 || b2.off != Headroom {
		t.Fatalf("reused buf Len=%d Headroom=%d", b2.Len(), b2.off)
	}
	gets, puts, misses := p.Stats()
	if gets != 2 || puts != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d/%d, want 2/1/1", gets, puts, misses)
	}
}

func TestPrepend(t *testing.T) {
	p := NewPool()
	b := p.Get(4)
	copy(b.Bytes(), "data")
	hdr := b.Prepend(20)
	if len(hdr) != 24 {
		t.Fatalf("len after Prepend = %d, want 24", len(hdr))
	}
	if string(hdr[20:]) != "data" {
		t.Fatal("Prepend moved the payload")
	}
	if b.off != Headroom-20 {
		t.Fatalf("headroom after Prepend = %d, want %d", b.off, Headroom-20)
	}
}

func TestPrependOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Prepend past headroom did not panic")
		}
	}()
	NewPool().Get(1).Prepend(Headroom + 1)
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	b := p.Get(8)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	b.Release()
}

func TestPoison(t *testing.T) {
	p := NewPool()
	p.SetPoison(true)
	b := p.Get(8)
	data := b.Bytes()
	copy(data, "payload!")
	b.Release()
	for i, v := range data {
		if v != 0xDB {
			t.Fatalf("byte %d = %#x after poisoned release, want 0xDB", i, v)
		}
	}
}

// TestScribbleFillsEveryByte: the doubling fill reaches every byte of any
// length, and no byte past it; an odd-length frame (an oversize one, exact
// size) reads 0xDB throughout once it is released.
func TestScribbleFillsEveryByte(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 1001, 32 << 10, 32<<10 + 1} {
		b := make([]byte, n+1)
		for i := range b {
			b[i] = byte(i)
		}
		Scribble(b[:n])
		for i, v := range b[:n] {
			if v != 0xDB {
				t.Fatalf("length %d: byte %d = %#x, want 0xDB", n, i, v)
			}
		}
		if b[n] != byte(n) {
			t.Fatalf("length %d: the byte past the end was written", n)
		}
	}
	p := NewPool()
	p.SetPoison(true)
	fb := p.Get(8001)
	data := fb.data
	if len(data)%2 == 0 {
		t.Fatalf("oversize frame's array is %d bytes, want an odd length", len(data))
	}
	for i := range data {
		data[i] = byte(i)
	}
	fb.Release()
	for i, v := range data {
		if v != 0xDB {
			t.Fatalf("byte %d of %d = %#x after poisoned release, want 0xDB", i, len(data), v)
		}
	}
}

func TestOversize(t *testing.T) {
	p := NewPool()
	b := p.Get(8000)
	if b.Len() != 8000 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Release() // must not enter a free list
	for _, c := range p.free {
		if c != nil {
			t.Fatal("oversize buffer entered a size class")
		}
	}
}

// TestSlabBuffersAreIsolated pins the slab's layout: buffers that share one
// backing array each stop at their class size, so neither writes through
// their bytes nor the poison of a released one reaches a neighbour.
func TestSlabBuffersAreIsolated(t *testing.T) {
	p := NewPool()
	p.SetPoison(true)
	bufs := make([]*Buf, slabBufs)
	for i := range bufs {
		bufs[i] = p.Get(60) // 100 B with headroom: class 128
		if c := cap(bufs[i].Bytes()); c != 128-Headroom {
			t.Fatalf("buffer %d: cap of its bytes = %d, want %d", i, c, 128-Headroom)
		}
		data := bufs[i].Bytes()
		for j := range data {
			data[j] = byte(i)
		}
	}
	saved := bufs[5].Bytes()
	bufs[5].Release()
	for j, v := range saved {
		if v != 0xDB {
			t.Fatalf("released buffer byte %d = %#x, want 0xDB", j, v)
		}
	}
	for i, b := range bufs {
		if i == 5 {
			continue
		}
		for j, v := range b.Bytes() {
			if v != byte(i) {
				t.Fatalf("buffer %d byte %d = %#x after its neighbour's release, want %#x", i, j, v, byte(i))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double Release of a slab buffer did not panic")
		}
	}()
	bufs[5].Release()
}

// TestFirstSlabIsOneObject: a class's first slab keeps its buffer headers in
// the pool, so a fresh pool that hands out a slab's worth of one class makes
// one object besides itself, the slab's bytes; the next slab makes two, its
// headers and its bytes.
func TestFirstSlabIsOneObject(t *testing.T) {
	for _, c := range []struct {
		gets int
		want float64
	}{{slabBufs, 1 + 1}, {slabBufs + 1, 1 + 1 + 2}} {
		allocs := testing.AllocsPerRun(10, func() {
			p := NewPool()
			for i := 0; i < c.gets; i++ {
				p.Get(1000)
			}
		})
		if allocs != c.want {
			t.Errorf("a fresh pool handing out %d buffers of one class allocates %v objects, want %v", c.gets, allocs, c.want)
		}
	}
}

// TestMissesCountFreshBuffers checks that a miss is one buffer handed out
// for the first time, not one slab allocation: a second slab's worth of Gets
// misses once per buffer, and a reused buffer is no miss.
func TestMissesCountFreshBuffers(t *testing.T) {
	p := NewPool()
	var bufs []*Buf
	for i := 0; i < slabBufs+3; i++ {
		bufs = append(bufs, p.Get(1000))
	}
	if _, _, misses := p.Stats(); misses != slabBufs+3 {
		t.Fatalf("misses = %d after %d fresh Gets, want %d", misses, slabBufs+3, slabBufs+3)
	}
	for _, b := range bufs {
		b.Release()
	}
	for range bufs {
		p.Get(1000)
	}
	gets, puts, misses := p.Stats()
	if gets != 2*(slabBufs+3) || puts != slabBufs+3 || misses != slabBufs+3 {
		t.Fatalf("stats = %d/%d/%d, want %d/%d/%d", gets, puts, misses,
			2*(slabBufs+3), slabBufs+3, slabBufs+3)
	}
	if n := p.Outstanding(); n != slabBufs+3 {
		t.Fatalf("Outstanding = %d, want %d", n, slabBufs+3)
	}
}

func TestSizeClassSelection(t *testing.T) {
	p := NewPool()
	small := p.Get(64) // 64+40=104 → class 128
	big := p.Get(1500) // 1540 → class 2048
	if cap(small.data) != 128 {
		t.Fatalf("64 B request got class %d, want 128", cap(small.data))
	}
	if cap(big.data) != 2048 {
		t.Fatalf("1500 B request got class %d, want 2048", cap(big.data))
	}
}

func BenchmarkGetRelease(b *testing.B) {
	p := NewPool()
	p.SetPoison(false) // time the production path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Get(1480).Release()
	}
}

// TestSetPoisonConcurrentToggle locks in that the poison flag — the one
// pool field a test harness may flip from outside the owning scheduler
// goroutine, e.g. between parallel sweep shards — is safe to race with
// Get/Release. Run under -race this fails if SetPoison regresses to a
// plain bool store.
func TestSetPoisonConcurrentToggle(t *testing.T) {
	p := NewPool()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			b := p.Get(64)
			b.Bytes()[0] = byte(i)
			b.Release()
		}
	}()
	for i := 0; i < 2000; i++ {
		p.SetPoison(i%2 == 0)
	}
	<-done
	if gets, puts, _ := p.Stats(); gets != 2000 || puts != 2000 {
		t.Fatalf("gets=%d puts=%d, want 2000/2000", gets, puts)
	}
}
