package trace

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/obs"
	"hydranet/internal/sim"
	"hydranet/internal/tcp"
)

func TestTracerFormatsSegments(t *testing.T) {
	sched := sim.NewScheduler(1)
	nw := netsim.New(sched)
	a := nw.AddNode(netsim.NodeConfig{Name: "a"})
	b := nw.AddNode(netsim.NodeConfig{Name: "b"})
	nw.Connect(a, b, netsim.LinkConfig{Delay: time.Millisecond})
	sa, sb := ipv4.NewStack(a, sched), ipv4.NewStack(b, sched)
	sa.SetAddr(0, inet.MustParseAddr("10.0.0.1"))
	sb.SetAddr(0, inet.MustParseAddr("10.0.0.2"))
	sa.Routes().AddDefault(0)
	sb.Routes().AddDefault(0)
	ca := tcp.NewStack(sa, tcp.Config{})
	cb := tcp.NewStack(sb, tcp.Config{})

	var out strings.Builder
	tr := New(&out, sched)
	tr.AttachTCP("client", ca)
	tr.AttachTCP("server", cb)

	l, _ := cb.Listen(0, 80)
	l.SetAcceptFunc(func(c *tcp.Conn) {})
	if _, err := ca.Connect(0, tcp.Endpoint{Addr: inet.MustParseAddr("10.0.0.2"), Port: 80}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(time.Second)

	text := out.String()
	if !strings.Contains(text, "SYN") || !strings.Contains(text, "SYN|ACK") {
		t.Fatalf("handshake not visible in trace:\n%s", text)
	}
	if !strings.Contains(text, "client") || !strings.Contains(text, "server") {
		t.Fatal("host labels missing")
	}
	if tr.Count() < 6 { // 3 segments, each seen at both ends
		t.Fatalf("only %d lines for a full handshake", tr.Count())
	}
}

func TestTracerLimit(t *testing.T) {
	sched := sim.NewScheduler(1)
	var out strings.Builder
	tr := New(&out, sched)
	tr.SetLimit(3)
	for i := 0; i < 10; i++ {
		tr.Emit("x", "line %d", i)
	}
	if tr.Count() != 3 {
		t.Fatalf("Count = %d, want 3", tr.Count())
	}
	if got := strings.Count(out.String(), "\n"); got != 3 {
		t.Fatalf("emitted %d lines, want 3", got)
	}
	if tr.Dropped() != 7 {
		t.Fatalf("Dropped = %d, want 7", tr.Dropped())
	}
}

// TestTracerSetLimitConcurrent exercises SetLimit racing with Emit; run
// under -race it verifies the limit is mutex-protected.
func TestTracerSetLimitConcurrent(t *testing.T) {
	sched := sim.NewScheduler(1)
	tr := New(io.Discard, sched)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.SetLimit(uint64(g*200 + i))
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Emit("x", "line %d", i)
			}
		}()
	}
	wg.Wait()
	if tr.Count()+tr.Dropped() != 4*200 {
		t.Fatalf("Count+Dropped = %d, want %d", tr.Count()+tr.Dropped(), 4*200)
	}
}

// TestTracerAttachBusHonorsLimit is the regression test for the AttachBus /
// SetLimit interaction: bus-fed lines must count against the same limit as
// Emit calls, suppressed bus events must show up in Dropped, and — because
// Event.Text formats lazily, after the limit check — a capped tracer on a
// busy bus must not allocate per event.
func TestTracerAttachBusHonorsLimit(t *testing.T) {
	sched := sim.NewScheduler(1)
	var out strings.Builder
	tr := New(&out, sched)
	tr.SetLimit(2)
	bus := obs.NewBus(sched.Now)
	tr.AttachBus(bus)

	tr.Emit("x", "direct line") // shares the budget with bus events
	for i := 0; i < 5; i++ {
		bus.Publish(obs.Event{Kind: obs.KindSuspicion, Node: "s1", Detail: "probe timeout"})
	}
	if tr.Count() != 2 {
		t.Fatalf("Count = %d, want 2", tr.Count())
	}
	if tr.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4 (bus events past the limit)", tr.Dropped())
	}
	if got := strings.Count(out.String(), "\n"); got != 2 {
		t.Fatalf("emitted %d lines, want 2:\n%s", got, out.String())
	}

	// Over the limit, a published event must cost no allocations: the text
	// is never formatted.
	allocs := testing.AllocsPerRun(100, func() {
		bus.Publish(obs.Event{Kind: obs.KindSuspicion, Node: "s1", Detail: "probe timeout"})
	})
	if allocs != 0 {
		t.Fatalf("over-limit bus event allocates %v per run, want 0", allocs)
	}
}

func TestTracerAttachBus(t *testing.T) {
	sched := sim.NewScheduler(1)
	var out strings.Builder
	tr := New(&out, sched)
	bus := obs.NewBus(sched.Now)
	tr.AttachBus(bus, obs.KindPromotion)

	bus.Publish(obs.Event{Kind: obs.KindPromotion, Node: "s1", Service: inet.Endpoint{Addr: inet.AddrFrom4(10, 0, 0, 1), Port: 80}})
	bus.Publish(obs.Event{Kind: obs.KindRetransmit, Node: "s1"}) // not subscribed

	text := out.String()
	if !strings.Contains(text, "promotion") || !strings.Contains(text, "s1") {
		t.Fatalf("bus event not rendered: %q", text)
	}
	if strings.Contains(text, "retransmit") {
		t.Fatalf("unsubscribed kind rendered: %q", text)
	}
}
