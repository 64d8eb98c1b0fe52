package netsim

import (
	"math/rand"
	"testing"
	"time"

	"hydranet/internal/sim"
)

// TestFrameConservation: every frame handed to Send is accounted for
// exactly once — delivered, lost to random loss, dropped at the queue, or
// rejected for size. No duplication, no disappearance.
func TestFrameConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		s := sim.NewScheduler(int64(trial))
		net := New(s)
		a := net.AddNode(NodeConfig{Name: "a"})
		b := net.AddNode(NodeConfig{Name: "b"})
		rb := &recorder{sched: s}
		b.SetHandler(rb)
		link := net.Connect(a, b, LinkConfig{
			Rate:       1_000_000,
			Delay:      time.Millisecond,
			MTU:        500,
			QueueBytes: 2000,
			Loss:       float64(trial) * 0.02,
		})
		total := 200 + rng.Intn(200)
		for i := 0; i < total; i++ {
			size := rng.Intn(700) + 1 // some exceed the 500-byte MTU
			s.At(time.Duration(rng.Intn(50))*time.Millisecond, func() {
				a.SendFrame(0, a.Pool().GetCopy(make([]byte, size)))
			})
		}
		s.Run()

		sent, _, mtuDrops := a.Stats()
		tx, lost, qdrop := link.Stats()
		if int(sent+mtuDrops) != total {
			t.Fatalf("trial %d: sent %d + mtuDrops %d != total %d", trial, sent, mtuDrops, total)
		}
		if sent != tx[0]+lost[0]+qdrop[0] {
			t.Fatalf("trial %d: sent %d != tx %d + lost %d + qdrop %d",
				trial, sent, tx[0], lost[0], qdrop[0])
		}
		if uint64(len(rb.frames)) != tx[0] {
			t.Fatalf("trial %d: delivered %d != transmitted %d", trial, len(rb.frames), tx[0])
		}
	}
}
