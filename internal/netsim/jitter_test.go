package netsim

import (
	"testing"
	"time"

	"hydranet/internal/sim"
)

func TestJitterReordersFrames(t *testing.T) {
	s := sim.NewScheduler(13)
	net := New(s)
	a := net.AddNode(NodeConfig{Name: "a"})
	b := net.AddNode(NodeConfig{Name: "b"})
	rb := &recorder{sched: s}
	b.SetHandler(rb)
	net.Connect(a, b, LinkConfig{Delay: time.Millisecond, Jitter: 5 * time.Millisecond})
	for i := 0; i < 200; i++ {
		a.SendFrame(0, a.Pool().GetCopy([]byte{byte(i)}))
	}
	s.Run()
	if len(rb.frames) != 200 {
		t.Fatalf("delivered %d frames", len(rb.frames))
	}
	reordered := 0
	for i := 1; i < len(rb.frames); i++ {
		if rb.frames[i][0] < rb.frames[i-1][0] {
			reordered++
		}
	}
	if reordered == 0 {
		t.Fatal("5ms jitter produced no reordering across 200 frames")
	}
}

func TestZeroJitterPreservesOrder(t *testing.T) {
	s := sim.NewScheduler(13)
	net := New(s)
	a := net.AddNode(NodeConfig{Name: "a"})
	b := net.AddNode(NodeConfig{Name: "b"})
	rb := &recorder{sched: s}
	b.SetHandler(rb)
	net.Connect(a, b, LinkConfig{Delay: time.Millisecond})
	for i := 0; i < 100; i++ {
		a.SendFrame(0, a.Pool().GetCopy([]byte{byte(i)}))
	}
	s.Run()
	for i := range rb.frames {
		if int(rb.frames[i][0]) != i {
			t.Fatal("FIFO link reordered frames")
		}
	}
}
