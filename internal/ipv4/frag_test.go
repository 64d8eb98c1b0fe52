package ipv4

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hydranet/internal/frame"
	"hydranet/internal/inet"
	"hydranet/internal/netsim"
	"hydranet/internal/sim"
)

func mkPacket(n int) *Packet {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &Packet{
		Header:  Header{TTL: 64, Proto: ProtoTCP, Src: 1, Dst: 2, ID: 42},
		Payload: payload,
	}
}

// Fragment collects what Stack.emit puts on the wire for p at mtu, parsed:
// p itself if it fits, else every fragment the cutter cuts from p's wire
// bytes.
func Fragment(p *Packet, mtu int) ([]*Packet, error) {
	if HeaderLen+len(p.Payload) <= mtu {
		return []*Packet{p}, nil
	}
	wire, err := p.Marshal()
	if err != nil {
		return nil, err
	}
	var frags []*Packet
	err = cutWire(wire, mtu, func(b []byte) error {
		f, err := Unmarshal(b)
		frags = append(frags, f)
		return err
	})
	return frags, err
}

// cutWire runs the cutter over the datagram wire at mtu, handing each
// fragment's bytes, copied out of its pooled frame, to f.
func cutWire(wire []byte, mtu int, f func([]byte) error) error {
	var ferr error
	err := cutFragments(frame.NewPool(), wire, mtu, func(fb *frame.Buf) {
		if ferr == nil {
			ferr = f(append([]byte(nil), fb.Bytes()...))
		}
		fb.Release()
	})
	return cmp.Or(err, ferr)
}

// refCutter is the reference the wire cutter is checked against: it cuts a
// parsed datagram, and each fragment is the datagram's header with the
// piece's offset and more-fragments flag over the piece's slice of the
// payload, marshalled on its own.
type refCutter struct {
	frag  Packet
	rest  []byte // payload still to cut
	chunk int    // payload bytes per fragment, a multiple of 8
	more  bool   // the datagram's own MoreFrag, which its last piece keeps
}

func (c *refCutter) init(p *Packet, mtu int) error {
	if p.DontFrag {
		return fmt.Errorf("%w: datagram %d→%s", ErrFragNeeded, p.ID, p.Dst)
	}
	chunk := (mtu - HeaderLen) &^ 7
	if chunk <= 0 {
		return fmt.Errorf("ipv4: mtu %d too small to fragment", mtu)
	}
	c.frag = Packet{Header: p.Header}
	c.rest, c.chunk, c.more = p.Payload, chunk, p.MoreFrag
	return nil
}

func (c *refCutter) next() bool {
	if len(c.rest) == 0 {
		return false
	}
	c.frag.FragOff += len(c.frag.Payload)
	n := c.chunk
	c.frag.MoreFrag = true
	if n >= len(c.rest) {
		n = len(c.rest)
		c.frag.MoreFrag = c.more
	}
	c.frag.Payload, c.rest = c.rest[:n], c.rest[n:]
	return true
}

// refFragments is the reference's wire bytes for p at mtu, one slice per
// fragment; p does not fit mtu.
func refFragments(p *Packet, mtu int) ([][]byte, error) {
	var c refCutter
	if err := c.init(p, mtu); err != nil {
		return nil, err
	}
	var out [][]byte
	for c.next() {
		b, err := c.frag.Marshal()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// addFragment feeds f to r the way Stack.InjectLocal does and returns a copy
// of the datagram it completed, nil if it completed none. The copy is taken
// while the datagram is valid; poison scribbles the original on recycling.
func addFragment(r *Reassembler, f *Packet, poison bool) *Packet {
	if f.FragOff == 0 && !f.MoreFrag {
		return f
	}
	d := r.Add(f)
	if d == nil {
		return nil
	}
	out := clonePacket(d.Packet())
	r.Recycle(d, poison)
	return out
}

func TestFragmentFitsUnchanged(t *testing.T) {
	p := mkPacket(100)
	frags, err := Fragment(p, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || frags[0] != p {
		t.Fatal("small datagram was not passed through")
	}
}

func TestFragmentSplitsAndAligns(t *testing.T) {
	p := mkPacket(4000)
	frags, err := Fragment(p, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("got %d fragments, want 3", len(frags))
	}
	for i, f := range frags {
		if f.FragOff%8 != 0 {
			t.Errorf("fragment %d offset %d not 8-aligned", i, f.FragOff)
		}
		if HeaderLen+len(f.Payload) > 1500 {
			t.Errorf("fragment %d exceeds MTU", i)
		}
		wantMore := i < len(frags)-1
		if f.MoreFrag != wantMore {
			t.Errorf("fragment %d MF = %v, want %v", i, f.MoreFrag, wantMore)
		}
		if f.ID != p.ID {
			t.Errorf("fragment %d ID changed", i)
		}
	}
}

func TestFragmentHonoursDF(t *testing.T) {
	p := mkPacket(4000)
	p.DontFrag = true
	if _, err := Fragment(p, 1500); err == nil {
		t.Error("DF datagram fragmented without error")
	}
}

func TestFragmentTinyMTU(t *testing.T) {
	p := mkPacket(100)
	if _, err := Fragment(p, HeaderLen+8); err != nil {
		t.Errorf("mtu=28 allows 8-byte chunks, got err %v", err)
	}
	// Below header+8 no 8-aligned chunk fits.
	if _, err := Fragment(p, HeaderLen+4); err == nil {
		t.Error("mtu too small for an aligned chunk must fail")
	}
}

func reassembleAll(t *testing.T, frags []*Packet) *Packet {
	t.Helper()
	s := sim.NewScheduler(1)
	r := NewReassembler(s)
	var out *Packet
	for _, f := range frags {
		if got := addFragment(r, f, true); got != nil {
			if out != nil {
				t.Fatal("reassembler produced two datagrams")
			}
			out = got
		}
	}
	return out
}

func TestReassembleInOrder(t *testing.T) {
	p := mkPacket(5000)
	frags, err := Fragment(p, 1500)
	if err != nil {
		t.Fatal(err)
	}
	out := reassembleAll(t, frags)
	if out == nil {
		t.Fatal("no datagram reassembled")
	}
	if !bytes.Equal(out.Payload, p.Payload) {
		t.Error("payload corrupted by frag/reassembly")
	}
	if out.MoreFrag || out.FragOff != 0 {
		t.Error("reassembled datagram still marked fragmented")
	}
}

func TestReassemblePropertyRandomOrderAndDup(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(n uint16, mtuRaw uint8, dup bool) bool {
		size := int(n)%8000 + 1
		mtu := 64 + int(mtuRaw)%1436 // 64..1500
		p := mkPacket(size)
		frags, err := Fragment(p, mtu)
		if err != nil {
			return false
		}
		order := rng.Perm(len(frags))
		var seq []*Packet
		for _, i := range order {
			seq = append(seq, frags[i])
			if dup && rng.Intn(3) == 0 {
				seq = append(seq, frags[i]) // duplicate delivery
			}
		}
		s := sim.NewScheduler(1)
		r := NewReassembler(s)
		var out *Packet
		for _, fr := range seq {
			if got := addFragment(r, fr, true); got != nil {
				out = got
			}
		}
		return out != nil && bytes.Equal(out.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReassemblyDistinguishesFlows(t *testing.T) {
	a := mkPacket(3000)
	b := mkPacket(3000)
	b.ID = 43
	fa, _ := Fragment(a, 1500)
	fb, _ := Fragment(b, 1500)
	s := sim.NewScheduler(1)
	r := NewReassembler(s)
	// Interleave flows; each must complete independently.
	done := 0
	for i := range fa {
		if addFragment(r, fa[i], true) != nil {
			done++
		}
		if addFragment(r, fb[i], true) != nil {
			done++
		}
	}
	if done != 2 {
		t.Fatalf("completed %d datagrams, want 2", done)
	}
}

func TestReassemblyTimeoutDiscards(t *testing.T) {
	p := mkPacket(3000)
	frags, _ := Fragment(p, 1500)
	s := sim.NewScheduler(1)
	r := NewReassembler(s)
	if addFragment(r, frags[0], true) != nil {
		t.Fatal("partial datagram completed")
	}
	s.RunUntil(ReassemblyTimeout + time.Second)
	if r.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", r.Expired)
	}
	// The late fragment alone must not complete the datagram.
	if addFragment(r, frags[1], true) != nil {
		t.Fatal("expired datagram completed from stale fragment")
	}
}

func TestRefragmentMiddleFragmentPreservesMF(t *testing.T) {
	// A router fragmenting an already-fragmented middle piece must keep MF
	// on its last sub-fragment.
	p := mkPacket(4000)
	frags, _ := Fragment(p, 1500)
	middle := frags[0]
	sub, err := Fragment(middle, 600)
	if err != nil {
		t.Fatal(err)
	}
	last := sub[len(sub)-1]
	if !last.MoreFrag {
		t.Error("last sub-fragment of a middle fragment lost MF")
	}
	// End-to-end: re-fragmented stream still reassembles.
	all := append(append([]*Packet{}, sub...), frags[1:]...)
	out := reassembleAll(t, all)
	if out == nil || !bytes.Equal(out.Payload, p.Payload) {
		t.Error("re-fragmented datagram failed to reassemble")
	}
}

// TestReassemblerCopiesFromPooledFrames is the regression test for the
// retained-slice hazard: fragment payloads arrive aliasing a pooled frame's
// bytes, and the fabric recycles that frame the moment the handler returns.
// Poison mode, on in every test, turns any alias the reassembler keeps into
// 0xDB scribbles in the reassembled datagram.
func TestReassemblerCopiesFromPooledFrames(t *testing.T) {
	s := sim.NewScheduler(1)
	r := NewReassembler(s)
	pool := frame.NewPool()

	p := mkPacket(4000)
	frags, err := Fragment(p, 1500)
	if err != nil {
		t.Fatal(err)
	}
	var out *Packet
	for _, f := range frags {
		fb := pool.Get(len(f.Payload))
		copy(fb.Bytes(), f.Payload)
		alias := *f
		alias.Payload = fb.Bytes()
		got := addFragment(r, &alias, true)
		fb.Release() // the fabric recycles the frame right after delivery
		if got != nil {
			out = got
		}
	}
	if out == nil {
		t.Fatal("no datagram reassembled")
	}
	if !bytes.Equal(out.Payload, p.Payload) {
		t.Fatal("reassembler retained fragment payload aliasing a recycled frame; copy on Add")
	}
}

// TestReassemblerDropsOversizeFragment: a fragment that ends past the largest
// datagram IPv4 can describe is dropped together with what its datagram had
// collected, and counted. (The reassembler used to accept it and hand the
// protocol handler a datagram with TotalLen 66 548.)
func TestReassemblerDropsOversizeFragment(t *testing.T) {
	s := sim.NewScheduler(1)
	r := NewReassembler(s)
	const lastOff = 65512 // the highest 8-aligned offset that leaves room for payload
	head := mkPacket(lastOff)
	head.MoreFrag = true
	if addFragment(r, head, true) != nil {
		t.Fatal("partial datagram completed")
	}
	tail := mkPacket(1000)
	tail.FragOff = 65528
	if got := addFragment(r, tail, true); got != nil {
		t.Fatalf("delivered an impossible datagram: TotalLen %d", got.TotalLen)
	}
	if r.Oversize != 1 || len(r.pending) != 0 {
		t.Fatalf("Oversize = %d with %d datagrams pending, want 1 and 0", r.Oversize, len(r.pending))
	}
	// The largest legal datagram still goes through, in the recycled entry.
	tail.FragOff, tail.Payload = lastOff, tail.Payload[:maxPayload-lastOff]
	if addFragment(r, head, true) != nil {
		t.Fatal("partial datagram completed")
	}
	got := addFragment(r, tail, true)
	if got == nil || got.TotalLen != 0xffff || !bytes.Equal(got.Payload[:lastOff], head.Payload) {
		t.Fatalf("65535-byte datagram did not reassemble: %+v", got)
	}
	s.Run()
	if r.Expired != 0 {
		t.Fatalf("Expired = %d: a dropped or completed datagram's timeout still fired", r.Expired)
	}
}

// TestReassemblerCapsPendingDatagrams: first fragments under ever new
// (source, ID) pairs never pin more than maxReassemblies buffers; past the
// cap the oldest goes, as if its timeout had come early.
func TestReassemblerCapsPendingDatagrams(t *testing.T) {
	s := sim.NewScheduler(1)
	r := NewReassembler(s)
	const n = 100_000
	first := func(i int) *Packet {
		p := mkPacket(64)
		p.Src, p.ID, p.MoreFrag = Addr(i>>16), uint16(i), true
		return p
	}
	last := func(i int) *Packet {
		p := first(i)
		p.FragOff, p.MoreFrag = 64, false
		return p
	}
	for i := 0; i < n; i++ {
		if addFragment(r, first(i), true) != nil {
			t.Fatalf("datagram %d completed from its first fragment", i)
		}
		if len(r.pending) > maxReassemblies {
			t.Fatalf("%d datagrams pending after %d, cap %d", len(r.pending), i+1, maxReassemblies)
		}
	}
	if r.Evicted != n-maxReassemblies || r.Expired != r.Evicted {
		t.Fatalf("Evicted = %d, Expired = %d, want both %d", r.Evicted, r.Expired, n-maxReassemblies)
	}
	// Oldest first: the youngest maxReassemblies are the ones still there.
	if addFragment(r, last(n-maxReassemblies), true) == nil || addFragment(r, last(n-1), true) == nil {
		t.Fatal("a datagram inside the cap was evicted")
	}
	if addFragment(r, last(n-maxReassemblies-1), true) != nil {
		t.Fatal("an evicted datagram completed")
	}
	// The rest (and that stray last fragment) time out; an evicted
	// datagram's timeout does not fire a second time.
	s.Run()
	if want := uint64(n - 1); r.Expired != want || len(r.pending) != 0 {
		t.Fatalf("Expired = %d with %d pending after the timeout, want %d and 0", r.Expired, len(r.pending), want)
	}
}

type handlerFunc func(*Packet)

func (f handlerFunc) DeliverIP(p *Packet) { f(p) }

// ipipInjector decapsulates like hostserver.HostServer: parse the tunnelled
// datagram out of the outer payload and inject it. It checks that the outer
// datagram it was handed survives whatever the injection completes.
type ipipInjector struct {
	t     *testing.T
	s     *Stack
	inner Packet
	// reassembled is set while an outer datagram that arrived in fragments
	// is being delivered.
	reassembled bool
}

func (h *ipipInjector) DeliverIP(outer *Packet) {
	before := append([]byte(nil), outer.Payload...)
	if err := h.inner.Unmarshal(outer.Payload); err != nil {
		h.t.Fatalf("bad tunnel payload: %v", err)
	}
	h.reassembled = outer.TotalLen > 1500
	h.s.InjectLocal(&h.inner)
	h.reassembled = false
	if !bytes.Equal(outer.Payload, before) {
		h.t.Error("the outer datagram changed under its handler during a nested reassembly")
	}
}

// TestReassemblyReentrantDuringDelivery: the fragment that completes an
// IP-in-IP outer datagram runs the decapsulator, which injects the inner
// datagram — itself a fragment, completing a second datagram inside the same
// call. Each finished datagram must stay intact until its own handler
// returns; poison mode scribbles both afterwards.
func TestReassemblyReentrantDuringDelivery(t *testing.T) {
	sched, cs, _, ss := threeNodeNet(t, netsim.LinkConfig{MTU: 1500})
	vhost := inet.MustParseAddr("192.20.225.20")
	ss.AddLocalAddr(vhost)
	decap := &ipipInjector{t: t, s: ss}
	ss.RegisterProto(ProtoIPIP, decap)
	recv := &sink{}
	nested := false
	ss.RegisterProto(ProtoUDP, handlerFunc(func(p *Packet) {
		nested = decap.reassembled
		recv.DeliverIP(p)
	}))

	// A 3000-byte inner datagram in three fragments, each tunnelled on its
	// own. The 1480-byte ones make 1520-byte outers that fragment in turn;
	// sent last, one of them completes the inner datagram from inside the
	// delivery of its reassembled outer.
	inner := mkPacket(3000)
	inner.Proto, inner.Src, inner.Dst = ProtoUDP, inet.MustParseAddr("1.2.3.4"), vhost
	frags, err := Fragment(inner, 1500)
	if err != nil || len(frags) != 3 {
		t.Fatalf("inner fragments: %d, %v", len(frags), err)
	}
	for _, i := range []int{2, 0, 1} {
		body, err := frags[i].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.Send(ProtoIPIP, 0, inet.MustParseAddr("10.2.0.2"), body); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if len(recv.pkts) != 1 || !bytes.Equal(recv.pkts[0].Payload, inner.Payload) {
		t.Fatalf("inner datagram not delivered intact (%d deliveries)", len(recv.pkts))
	}
	if !nested {
		t.Fatal("the inner datagram did not complete inside a reassembled outer's delivery")
	}
	if st := ss.Reassembly(); st != (ReassemblyStats{}) {
		t.Fatalf("reassembler gave up on something: %+v", st)
	}
}

// TestReassemblerInline: a Reassembler holds the rows of its first four
// pending datagrams and its first record, buffer included, so putting four
// datagrams together at once allocates the three records past the first.
func TestReassemblerInline(t *testing.T) {
	s := sim.NewScheduler(1)
	var frags [4][2]*Packet
	for i := range frags {
		for j := range frags[i] {
			p := mkPacket(64)
			p.ID, p.FragOff, p.MoreFrag = uint16(i), 64*j, j == 0
			frags[i][j] = p
		}
	}
	var r Reassembler
	allocs := testing.AllocsPerRun(10, func() {
		r = Reassembler{}
		r.Init(s)
		for i := range frags {
			r.Add(frags[i][0])
		}
		for i := range frags {
			r.Recycle(r.Add(frags[i][1]), false)
		}
	})
	if allocs != 3 {
		t.Errorf("four datagrams reassembled at once allocate %v objects, want 3", allocs)
	}
}
