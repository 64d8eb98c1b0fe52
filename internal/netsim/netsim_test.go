package netsim

import (
	"testing"
	"time"

	"hydranet/internal/sim"
)

type recorder struct {
	frames  [][]byte
	ifaces  []int
	arrived []time.Duration
	sched   *sim.Scheduler
}

// HandleFrame keeps a copy: frame is released when the call returns.
func (r *recorder) HandleFrame(ifindex int, frame []byte) {
	r.frames = append(r.frames, append([]byte(nil), frame...))
	r.ifaces = append(r.ifaces, ifindex)
	r.arrived = append(r.arrived, r.sched.Now())
}

func pair(t *testing.T, cfg LinkConfig) (*sim.Scheduler, *Node, *Node, *recorder, *recorder) {
	t.Helper()
	s := sim.NewScheduler(7)
	net := New(s)
	a := net.AddNode(NodeConfig{Name: "a"})
	b := net.AddNode(NodeConfig{Name: "b"})
	ra := &recorder{sched: s}
	rb := &recorder{sched: s}
	a.SetHandler(ra)
	b.SetHandler(rb)
	net.Connect(a, b, cfg)
	return s, a, b, ra, rb
}

func TestDeliveryAndLatency(t *testing.T) {
	// 1000 bytes at 8 Mbit/s = 1 ms serialization, plus 2 ms propagation.
	s, a, _, _, rb := pair(t, LinkConfig{Rate: 8_000_000, Delay: 2 * time.Millisecond})
	a.SendFrame(0, a.Pool().GetCopy(make([]byte, 1000)))
	s.Run()
	if len(rb.frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(rb.frames))
	}
	if got, want := rb.arrived[0], 3*time.Millisecond; got != want {
		t.Fatalf("arrival at %v, want %v", got, want)
	}
}

func TestSerializationQueuing(t *testing.T) {
	// Two back-to-back 1000-byte frames: second must wait for the first's
	// serialization slot.
	s, a, _, _, rb := pair(t, LinkConfig{Rate: 8_000_000})
	a.SendFrame(0, a.Pool().GetCopy(make([]byte, 1000)))
	a.SendFrame(0, a.Pool().GetCopy(make([]byte, 1000)))
	s.Run()
	if len(rb.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(rb.frames))
	}
	if rb.arrived[0] != time.Millisecond || rb.arrived[1] != 2*time.Millisecond {
		t.Fatalf("arrivals %v, want [1ms 2ms]", rb.arrived)
	}
}

func TestDuplexIndependence(t *testing.T) {
	// Traffic in one direction must not delay the other direction.
	s, a, b, ra, rb := pair(t, LinkConfig{Rate: 8_000_000})
	a.SendFrame(0, a.Pool().GetCopy(make([]byte, 1000)))
	b.SendFrame(0, b.Pool().GetCopy(make([]byte, 1000)))
	s.Run()
	if len(ra.frames) != 1 || len(rb.frames) != 1 {
		t.Fatalf("deliveries a=%d b=%d, want 1 and 1", len(ra.frames), len(rb.frames))
	}
	if ra.arrived[0] != time.Millisecond || rb.arrived[0] != time.Millisecond {
		t.Fatalf("arrivals a=%v b=%v, want 1ms each", ra.arrived[0], rb.arrived[0])
	}
}

func TestMTUDrop(t *testing.T) {
	s, a, _, _, rb := pair(t, LinkConfig{MTU: 100})
	a.SendFrame(0, a.Pool().GetCopy(make([]byte, 101)))
	s.Run()
	if len(rb.frames) != 0 {
		t.Fatal("oversized frame was delivered")
	}
	if _, _, dropped := a.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestQueueOverflowDropTail(t *testing.T) {
	// Queue of 2000 bytes: third 1000-byte frame while two are backed up
	// must be dropped.
	s, a, _, _, rb := pair(t, LinkConfig{Rate: 8_000_000, QueueBytes: 2000})
	for i := 0; i < 3; i++ {
		a.SendFrame(0, a.Pool().GetCopy(make([]byte, 1000)))
	}
	s.Run()
	if len(rb.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2 (drop-tail)", len(rb.frames))
	}
}

// TestQueueDrainsWithoutEvents: a frame leaves its transmit queue the instant
// it has been serialized although no event marks that instant — the backlog is
// brought up to date by whoever reads it (Backlogs, the next transmit). Three
// events a frame: sender CPU, arrival, receiver CPU.
func TestQueueDrainsWithoutEvents(t *testing.T) {
	// 1000 bytes at 8 Mbit/s serialize in 1 ms; propagation takes 10 more.
	s, a, _, _, rb := pair(t, LinkConfig{Rate: 8_000_000, Delay: 10 * time.Millisecond, QueueBytes: 2000})
	link := a.ifaces[0].link
	a.SendFrame(0, a.Pool().GetCopy(make([]byte, 1000)))
	a.SendFrame(0, a.Pool().GetCopy(make([]byte, 1000)))
	s.RunUntil(500 * time.Microsecond)
	if ab, _ := link.Backlogs(); ab != 2000 {
		t.Fatalf("backlog %d with two frames queued, want 2000", ab)
	}
	a.SendFrame(0, a.Pool().GetCopy(make([]byte, 1000))) // no room: dropped
	s.RunUntil(time.Millisecond)
	if ab, _ := link.Backlogs(); ab != 1000 {
		t.Fatalf("backlog %d once the first frame is serialized, want 1000", ab)
	}
	a.SendFrame(0, a.Pool().GetCopy(make([]byte, 1000))) // takes the room the first frame left
	s.RunUntil(3 * time.Millisecond)
	if ab, ba := link.Backlogs(); ab != 0 || ba != 0 {
		t.Fatalf("backlogs %d/%d with everything on the wire, want 0/0", ab, ba)
	}
	s.Run()
	if _, _, drops := link.Stats(); len(rb.frames) != 3 || drops[0] != 1 {
		t.Fatalf("delivered %d frames and dropped %d at the queue, want 3 and 1", len(rb.frames), drops[0])
	}
	if want := uint64(3*3 + 1); s.Fired() != want {
		t.Errorf("Fired = %d, want %d: three events per delivered frame, one for the dropped", s.Fired(), want)
	}
}

func TestLossDeterministic(t *testing.T) {
	run := func() int {
		s := sim.NewScheduler(99)
		net := New(s)
		a := net.AddNode(NodeConfig{Name: "a"})
		b := net.AddNode(NodeConfig{Name: "b"})
		rb := &recorder{sched: s}
		b.SetHandler(rb)
		net.Connect(a, b, LinkConfig{Loss: 0.5})
		for i := 0; i < 100; i++ {
			a.SendFrame(0, a.Pool().GetCopy([]byte{byte(i)}))
		}
		s.Run()
		return len(rb.frames)
	}
	first := run()
	if first == 0 || first == 100 {
		t.Fatalf("loss=0.5 delivered %d of 100", first)
	}
	if second := run(); second != first {
		t.Fatalf("same seed delivered %d then %d frames", first, second)
	}
}

func TestCrashStopsTraffic(t *testing.T) {
	s, a, b, _, rb := pair(t, LinkConfig{})
	b.Crash()
	a.SendFrame(0, a.Pool().GetCopy([]byte{1}))
	s.Run()
	if len(rb.frames) != 0 {
		t.Fatal("crashed node received a frame")
	}
	if b.Alive() {
		t.Fatal("crashed node reports alive")
	}
	b.Restart()
	a.SendFrame(0, a.Pool().GetCopy([]byte{2}))
	s.Run()
	if len(rb.frames) != 1 {
		t.Fatal("restarted node did not receive")
	}
	// A frame waiting in the receiver's CPU lane when it dies is released
	// undelivered.
	b.SetProc(time.Millisecond, 0)
	a.SendFrame(0, a.Pool().GetCopy([]byte{3}))
	s.RunUntil(s.Now() + time.Millisecond/2)
	b.Crash()
	s.Run()
	if len(rb.frames) != 1 {
		t.Fatal("a node that died with a frame in its CPU lane delivered it")
	}
	if n := b.Pool().Outstanding(); n != 0 {
		t.Fatalf("%d frames outstanding once idle, want 0", n)
	}
}

func TestCrashedNodeCannotSend(t *testing.T) {
	s, a, _, _, rb := pair(t, LinkConfig{})
	a.Crash()
	a.SendFrame(0, a.Pool().GetCopy([]byte{1})) // released at once
	s.Run()
	if len(rb.frames) != 0 {
		t.Fatal("crashed node sent a frame")
	}
	// A frame waiting in the sender's CPU lane when it dies is released
	// unsent.
	a.Restart()
	a.SetProc(time.Millisecond, 0)
	a.SendFrame(0, a.Pool().GetCopy([]byte{2}))
	a.Crash()
	s.Run()
	if len(rb.frames) != 0 {
		t.Fatal("a node that died with a frame in its CPU lane sent it")
	}
	if n := a.Pool().Outstanding(); n != 0 {
		t.Fatalf("%d frames outstanding once idle, want 0", n)
	}
}

func TestCPUSerialization(t *testing.T) {
	// Receiver with 5 ms per-frame CPU cost: two frames arriving together
	// are processed 5 ms apart.
	s := sim.NewScheduler(7)
	net := New(s)
	a := net.AddNode(NodeConfig{Name: "a"})
	b := net.AddNode(NodeConfig{Name: "b", ProcDelay: 5 * time.Millisecond})
	rb := &recorder{sched: s}
	b.SetHandler(rb)
	net.Connect(a, b, LinkConfig{})
	a.SendFrame(0, a.Pool().GetCopy([]byte{1}))
	a.SendFrame(0, a.Pool().GetCopy([]byte{2}))
	s.Run()
	if len(rb.frames) != 2 {
		t.Fatalf("delivered %d, want 2", len(rb.frames))
	}
	if gap := rb.arrived[1] - rb.arrived[0]; gap != 5*time.Millisecond {
		t.Fatalf("processing gap %v, want 5ms", gap)
	}
}

func TestMultipleInterfaces(t *testing.T) {
	s := sim.NewScheduler(7)
	net := New(s)
	r := net.AddNode(NodeConfig{Name: "router"})
	a := net.AddNode(NodeConfig{Name: "a"})
	b := net.AddNode(NodeConfig{Name: "b"})
	rr := &recorder{sched: s}
	r.SetHandler(rr)
	net.Connect(a, r, LinkConfig{})
	net.Connect(b, r, LinkConfig{})
	if r.NumInterfaces() != 2 {
		t.Fatalf("router has %d interfaces, want 2", r.NumInterfaces())
	}
	a.SendFrame(0, a.Pool().GetCopy([]byte{1}))
	b.SendFrame(0, b.Pool().GetCopy([]byte{2}))
	s.Run()
	if len(rr.frames) != 2 {
		t.Fatalf("router got %d frames, want 2", len(rr.frames))
	}
	// Frames must be tagged with the interface they arrived on.
	seen := map[int]byte{}
	for i := range rr.frames {
		seen[rr.ifaces[i]] = rr.frames[i][0]
	}
	if seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("iface tagging wrong: %v", seen)
	}
	if r.Peer(0).Name() != "a" || r.Peer(1).Name() != "b" {
		t.Fatal("Peer returns wrong nodes")
	}
}

func TestSendInvalidInterfacePanics(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	a := net.AddNode(NodeConfig{Name: "a"})
	defer func() {
		if recover() == nil {
			t.Error("Send on missing interface did not panic")
		}
	}()
	a.SendFrame(0, a.Pool().GetCopy([]byte{1}))
}
