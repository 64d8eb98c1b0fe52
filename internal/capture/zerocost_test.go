package capture

import (
	"io"
	"testing"
	"time"

	"hydranet/internal/netsim"
	"hydranet/internal/sim"
)

type sinkHandler struct {
	frames int
}

func (h *sinkHandler) HandleFrame(ifindex int, frame []byte) { h.frames++ }

// linkPair builds the same two-node topology as netsim's
// BenchmarkLinkRoundTrip, so alloc counts here are directly comparable to
// the fabric's published per-hop budget.
func linkPair() (*sim.Scheduler, *netsim.Network, *netsim.Node, *sinkHandler) {
	s := sim.NewScheduler(1)
	nw := netsim.New(s)
	a := nw.AddNode(netsim.NodeConfig{Name: "a"})
	c := nw.AddNode(netsim.NodeConfig{Name: "c"})
	nw.Connect(a, c, netsim.LinkConfig{Rate: 100_000_000, Delay: 10 * time.Microsecond})
	h := &sinkHandler{}
	c.SetHandler(h)
	return s, nw, a, h
}

// TestCaptureZeroCostWhenDisabled guards the PR's fast-path invariant: with
// no tap installed (or a tap installed and then removed, as a CLI does when
// tearing a capture down), a link round-trip performs exactly as many heap
// allocations as it did before the tap point existed. The disabled tap must
// cost one pointer test and nothing more.
func TestCaptureZeroCostWhenDisabled(t *testing.T) {
	roundTrips := func(install bool) float64 {
		s, nw, a, _ := linkPair()
		if install {
			nw.SetFrameTap(func(from, to *netsim.Node, data []byte) {})
			nw.SetFrameTap(nil)
		}
		frame := make([]byte, 64)
		a.SendFrame(0, a.Pool().GetCopy(frame)) // warm the pool
		s.Run()
		return testing.AllocsPerRun(200, func() {
			a.SendFrame(0, a.Pool().GetCopy(frame))
			s.Run()
		})
	}
	base := roundTrips(false)
	disabled := roundTrips(true)
	if disabled != base {
		t.Fatalf("round-trip with removed tap allocates %v/op, baseline %v/op — disabled capture must add 0",
			disabled, base)
	}
}

// TestFrameTapSeesBothDirections: the tap fires per link transmission in
// either direction, with correctly attributed endpoints and live bytes.
func TestFrameTapSeesBothDirections(t *testing.T) {
	s := sim.NewScheduler(1)
	nw := netsim.New(s)
	a := nw.AddNode(netsim.NodeConfig{Name: "a"})
	b := nw.AddNode(netsim.NodeConfig{Name: "b"})
	nw.Connect(a, b, netsim.LinkConfig{Rate: 100_000_000, Delay: 10 * time.Microsecond})
	a.SetHandler(&sinkHandler{})
	b.SetHandler(&sinkHandler{})

	type seen struct {
		from, to string
		first    byte
		n        int
	}
	var taps []seen
	nw.SetFrameTap(func(from, to *netsim.Node, data []byte) {
		taps = append(taps, seen{from.Name(), to.Name(), data[0], len(data)})
	})

	a.SendFrame(0, a.Pool().GetCopy([]byte{0xaa, 1, 2}))
	s.Run()
	b.SendFrame(0, b.Pool().GetCopy([]byte{0xbb, 3}))
	s.Run()

	want := []seen{{"a", "b", 0xaa, 3}, {"b", "a", 0xbb, 2}}
	if len(taps) != len(want) {
		t.Fatalf("tap fired %d times, want %d", len(taps), len(want))
	}
	for i := range want {
		if taps[i] != want[i] {
			t.Errorf("tap %d = %+v, want %+v", i, taps[i], want[i])
		}
	}
}

// BenchmarkLinkRoundTripCapture measures the fabric round-trip with a pcap
// capture attached and writing to io.Discard — the enabled-overhead number
// quoted in DESIGN.md, next to netsim's BenchmarkLinkRoundTrip baseline.
func BenchmarkLinkRoundTripCapture(b *testing.B) {
	s, nw, a, h := linkPair()
	nw.Pool().SetPoison(false) // time the production path
	c, err := New(io.Discard, s.Now)
	if err != nil {
		b.Fatal(err)
	}
	nw.SetFrameTap(c.FrameTap())
	frame := make([]byte, 1500)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.SendFrame(0, a.Pool().GetCopy(frame))
		s.Run()
	}
	b.StopTimer()
	if h.frames != b.N {
		b.Fatalf("delivered %d of %d frames", h.frames, b.N)
	}
}
