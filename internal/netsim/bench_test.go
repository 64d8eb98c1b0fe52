package netsim

import (
	"testing"
	"time"

	"hydranet/internal/sim"
)

type countingHandler struct {
	frames int
	bytes  int
}

func (h *countingHandler) HandleFrame(ifindex int, frame []byte) {
	h.frames++
	h.bytes += len(frame)
}

// BenchmarkLinkRoundTrip measures the full fabric cost of delivering one
// frame across a link: CPU charging, queueing, serialization, propagation
// and handler dispatch. Its allocs/op is the per-hop allocation budget of
// every simulated packet.
func BenchmarkLinkRoundTrip(b *testing.B) {
	for _, size := range []int{64, 1500} {
		b.Run(sizeName(size), func(b *testing.B) {
			s := sim.NewScheduler(1)
			net := New(s)
			net.Pool().SetPoison(false) // time the production path
			a := net.AddNode(NodeConfig{Name: "a"})
			c := net.AddNode(NodeConfig{Name: "c"})
			net.Connect(a, c, LinkConfig{Rate: 100_000_000, Delay: 10 * time.Microsecond})
			h := &countingHandler{}
			c.SetHandler(h)
			frame := make([]byte, size)
			b.SetBytes(int64(size))
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
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 64:
		return "64B"
	case 576:
		return "576B"
	default:
		return "1500B"
	}
}
