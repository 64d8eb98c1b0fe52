package rmp

import (
	"bytes"
	"testing"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/sim"
	"hydranet/internal/udp"
)

// resultFunc and dataFunc adapt the tests' closures to an endpoint's
// handlers.
type resultFunc func(delivered bool)

func (f resultFunc) onResult(delivered bool) { f(delivered) }

type dataFunc func(from udp.Endpoint, payload []byte)

func (f dataFunc) onMessage(from udp.Endpoint, payload []byte) { f(from, payload) }

// relPair builds two directly linked hosts with reliable endpoints.
func relPair(t *testing.T, loss float64) (*sim.Scheduler, *Reliable, *Reliable,
	udp.Endpoint, udp.Endpoint, *[][]byte, *netsim.Link) {
	t.Helper()
	sched := sim.NewScheduler(51)
	nw := netsim.New(sched)
	a := nw.AddNode(netsim.NodeConfig{Name: "a"})
	b := nw.AddNode(netsim.NodeConfig{Name: "b"})
	link := nw.Connect(a, b, netsim.LinkConfig{Delay: time.Millisecond, Loss: loss})
	sa, sb := ipv4.NewStack(a, sched), ipv4.NewStack(b, sched)
	aAddr, bAddr := inet.MustParseAddr("10.0.0.1"), inet.MustParseAddr("10.0.0.2")
	sa.SetAddr(0, aAddr)
	sb.SetAddr(0, bAddr)
	sa.Routes().AddDefault(0)
	sb.Routes().AddDefault(0)
	ua, ub := udp.NewStack(sa), udp.NewStack(sb)

	var received [][]byte
	ra, rb := new(Reliable), new(Reliable)
	if err := ra.Init(ua, sched, aAddr, ManagementPort, nil); err != nil {
		t.Fatal(err)
	}
	if err := rb.Init(ub, sched, bAddr, ManagementPort,
		dataFunc(func(_ udp.Endpoint, p []byte) { received = append(received, append([]byte(nil), p...)) })); err != nil {
		t.Fatal(err)
	}
	return sched, ra, rb, udp.Endpoint{Addr: aAddr, Port: ManagementPort},
		udp.Endpoint{Addr: bAddr, Port: ManagementPort}, &received, link
}

func TestReliableDelivery(t *testing.T) {
	sched, ra, _, _, epB, received, _ := relPair(t, 0)
	delivered := false
	msg := &Message{Type: MsgMirror, ProbeID: 1, Hosts: []ipv4.Addr{7, 8}}
	ra.Send(epB, msg, resultFunc(func(ok bool) { delivered = ok }))
	sched.Run()
	if !delivered {
		t.Fatal("delivery not confirmed")
	}
	if len(*received) != 1 || !bytes.Equal((*received)[0], msg.Marshal()) {
		t.Fatalf("received %v", *received)
	}
}

func TestReliableSurvivesLoss(t *testing.T) {
	sched, ra, _, _, epB, received, _ := relPair(t, 0.4)
	confirmed := 0
	for i := 0; i < 10; i++ {
		ra.Send(epB, &Message{Type: MsgPing, ProbeID: uint32(i)}, resultFunc(func(ok bool) {
			if ok {
				confirmed++
			}
		}))
	}
	sched.Run()
	// 40% loss with 4 attempts: essentially everything gets through.
	if confirmed < 8 {
		t.Fatalf("only %d of 10 confirmed under 40%% loss", confirmed)
	}
	if len(*received) < confirmed {
		t.Fatalf("receiver saw %d, sender confirmed %d", len(*received), confirmed)
	}
	// No duplicates surfaced to the application.
	seen := map[string]int{}
	for _, p := range *received {
		seen[string(p)]++
		if seen[string(p)] > 1 {
			t.Fatalf("duplicate delivery of % x", p)
		}
	}
}

func TestReliableReportsFailure(t *testing.T) {
	sched, ra, _, _, epB, _, link := relPair(t, 0)
	link.SetLoss(1) // total partition
	var verdicts []bool
	ra.Send(epB, &Message{Type: MsgPing}, resultFunc(func(delivered bool) { verdicts = append(verdicts, delivered) }))
	sched.Run()
	if len(verdicts) != 1 || verdicts[0] {
		t.Fatalf("verdicts %v on a datagram into a partition, want one failure", verdicts)
	}
}

func TestReliableFailureLatencyBounded(t *testing.T) {
	// The verdict on a partitioned peer bounds reconfiguration latency.
	// Attempts wait RTO, 2·RTO, 4·RTO and 8·RTO: 15 RTOs in all.
	sched, ra, _, _, epB, _, link := relPair(t, 0)
	verdict := func() time.Duration {
		start := sched.Now()
		var failedAt time.Duration
		ra.Send(epB, &Message{Type: MsgPing}, resultFunc(func(delivered bool) {
			if !delivered {
				failedAt = sched.Now()
			}
		}))
		sched.Run()
		if failedAt == 0 {
			t.Fatal("delivery into a partition reported success")
		}
		return failedAt - start
	}

	// Unsampled: every attempt waits the 250-ms ceiling, 1 s in all.
	link.SetLoss(1)
	if got := verdict(); got != relAttempts*relMaxRTO {
		t.Fatalf("unsampled peer: verdict after %v, want %v", got, relAttempts*relMaxRTO)
	}

	// Sampled over the 1-ms link: the verdict comes at RTT scale.
	link.SetLoss(0)
	ra.Send(epB, &Message{Type: MsgPing}, nil)
	sched.Run()
	rto := ra.peers[ra.peer(epB.Addr)].rto.Current()
	if rto >= 10*time.Millisecond {
		t.Fatalf("RTO %v after one sample of a 2-ms round trip", rto)
	}
	link.SetLoss(1)
	if got := verdict(); got > 15*rto || got > 100*time.Millisecond {
		t.Fatalf("sampled peer (RTO %v): verdict after %v, want within 15 RTOs and 100 ms", rto, got)
	}
}

func TestReliableKarn(t *testing.T) {
	// An acknowledgment of a retransmitted datagram is not a sample: it may
	// answer the first copy or the second, so the RTT it implies is unknown.
	sched, ra, _, _, epB, _, link := relPair(t, 0)
	ra.Send(epB, &Message{Type: MsgPing}, nil)
	sched.Run()
	before := ra.peers[ra.peer(epB.Addr)].rto.Current()

	link.SetLoss(1) // the first copy is lost ...
	delivered := false
	ra.Send(epB, &Message{Type: MsgPing}, resultFunc(func(ok bool) { delivered = ok }))
	sched.After(time.Millisecond, func() { link.SetLoss(0) }) // ... the second is not
	sched.Run()
	if !delivered {
		t.Fatal("retransmission not acknowledged")
	}
	if after := ra.peers[ra.peer(epB.Addr)].rto.Current(); after != before {
		t.Fatalf("RTO moved %v -> %v on a retransmitted datagram's acknowledgment", before, after)
	}
}

func TestReliableDedupWindow(t *testing.T) {
	// Force duplicate DATA frames by simulating a lost ACK: send, then
	// replay the exact frame. The receiver must ack both but deliver once.
	sched, ra, rb, _, epB, received, _ := relPair(t, 0)
	ra.Send(epB, &Message{Type: MsgPing}, nil)
	sched.Run()
	if len(*received) != 1 {
		t.Fatalf("received %d", len(*received))
	}
	// Replay via the dedup check directly.
	if !rb.peers[rb.peer(inet.MustParseAddr("10.0.0.1"))].isDup(1) {
		t.Fatal("replayed sequence not detected as duplicate")
	}
}

func TestReliableDedupRingWraps(t *testing.T) {
	// The ring holds the last relDedupWindow sequence numbers: after 100
	// distinct ones, 37..100 are remembered and 1..36 forgotten.
	var pe peer
	for seq := uint32(1); seq <= 100; seq++ {
		if pe.isDup(seq) {
			t.Fatalf("first sight of %d reported as duplicate", seq)
		}
	}
	for seq := uint32(100 - relDedupWindow + 1); seq <= 100; seq++ {
		if !pe.isDup(seq) {
			t.Fatalf("%d, within the window, not detected as duplicate", seq)
		}
	}
	if pe.isDup(100 - relDedupWindow) {
		t.Fatalf("%d, outside the window, still remembered", 100-relDedupWindow)
	}
}

// TestReliableSteadyStateAllocs pins the allocation-free message path: once
// the pools, the pending record and the peer records exist, a message sent,
// decoded at the receiver into a scratch Message, and acknowledged allocates
// nothing.
func TestReliableSteadyStateAllocs(t *testing.T) {
	sched, ra, rb, _, epB, _, _ := relPair(t, 0)
	var in Message
	rb.onData = dataFunc(func(_ udp.Endpoint, p []byte) {
		if err := in.Unmarshal(p); err != nil {
			t.Fatal(err)
		}
	})
	acked := 0
	onResult := resultFunc(func(ok bool) {
		if ok {
			acked++
		}
	})
	msg := &Message{Type: MsgMirror, ProbeID: 7, Hosts: []ipv4.Addr{1, 2, 3}}
	cycle := func() {
		ra.Send(epB, msg, onResult)
		sched.Run()
	}
	cycle() // warm-up: pools, records, the peers' RTOs
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("Send + ack allocates %.1f objects per message, want 0", avg)
	}
	if acked != 202 || len(in.Hosts) != 3 || in.Hosts[2] != 3 { // AllocsPerRun runs once more to warm up
		t.Fatalf("acked %d of 202, last decoded %+v", acked, in)
	}
}
