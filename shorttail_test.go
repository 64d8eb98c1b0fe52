package hydranet

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/ipv4"
	"hydranet/internal/obs"
	"hydranet/internal/tcp"
)

const (
	shortTailRequest = 200
	delayedAck       = 200 * time.Millisecond
)

// respondAndClose is a service that reads a shortTailRequest-byte request,
// writes size bytes and closes: the close-after-write shape of bench's churn.
func respondAndClose(size int) func(*Conn) {
	return func(c *Conn) {
		got, buf := 0, make([]byte, shortTailRequest)
		c.OnReadable(func() {
			for got < shortTailRequest {
				n := c.Read(buf[:shortTailRequest-got])
				if n == 0 {
					return
				}
				if got += n; got == shortTailRequest {
					app.Source(c, make([]byte, size), true)
				}
			}
		})
	}
}

// delayedAcks delays every host's ACKs, as bench's churn clients do.
var delayedAcks = TCPConfig{DelayedAckTimeout: delayedAck}

// request is a row whose client sends one shortTailRequest-byte request
// through a respondAndClose(response) service on a delayed-ACK network.
func request(seed int64, replicas, response int) faultCase {
	return faultCase{seed: seed, replicas: replicas, tcp: delayedAcks, accept: respondAndClose(response),
		send: make([]byte, shortTailRequest), verdict: verdict{echo: make([]byte, response), closed: true}}
}

// TestShortTailLeavesWithFIN: a response of one full segment and a 462-byte
// tail, then Close. The tail is short and the full segment unacknowledged, so
// Nagle alone would hold it until the client's delayed ACK of the lone full
// segment fires, 200 ms later; the queued FIN sends it at once (4.4BSD
// tcp_output). On a replica chain the backup's tail + FIN becomes a chain
// message the moment the application closes, and the primary's send gate
// opens one hop later.
func TestShortTailLeavesWithFIN(t *testing.T) {
	const response = 1460 + 462
	check := func(t *testing.T, out *stream) {
		t.Helper()
		if out.closedAt >= delayedAck {
			t.Errorf("client closed %v after the dial: the response waited out a %v delayed ACK", out.closedAt, delayedAck)
		}
	}
	t.Run("plain", func(t *testing.T) {
		net, client, _, servers, _ := ftTopology(Config{Seed: 120, TCP: delayedAcks}, 1, LinkConfig{})
		l, err := servers[0].Listen(0, 80)
		if err != nil {
			t.Fatal(err)
		}
		l.SetAcceptFunc(respondAndClose(response))
		r := &faultRun{t: t, net: net}
		out := r.dial(client, Endpoint{Addr: servers[0].Addr(), Port: 80}, make([]byte, shortTailRequest), false)
		net.RunFor(time.Minute)
		if !out.closed || out.err != nil || len(out.got) != response {
			t.Fatalf("client read %d of %d bytes, closed=%v err=%v", len(out.got), response, out.closed, out.err)
		}
		check(t, out)
	})
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("ft-%d", n), func(t *testing.T) {
			// When the primary's FIN went on the wire and which sequence
			// number follows it; when each backup announced each cursor.
			var finAt time.Duration
			var finEnd tcp.Seq
			type announce struct {
				node string
				seq  uint64
			}
			announced := map[announce]time.Duration{}
			fc := request(int64(120+n), n, response)
			fc.steps = []step{{do: func(r *faultRun) {
				r.replicas[0].TCP().SetTrace(func(dir string, _, _ Endpoint, seg *tcp.Segment) {
					if dir == "out" && seg.Flags.Has(tcp.FlagFIN) && finAt == 0 {
						finAt, finEnd = r.net.Now(), seg.Seq.Add(seg.Len())
						if len(seg.Payload) != 462 {
							t.Errorf("the primary's FIN travels with %d bytes, want the 462-byte tail", len(seg.Payload))
						}
					}
				})
				r.net.Bus().Subscribe(func(e obs.Event) {
					if k := (announce{e.Node, e.Seq}); announced[k] == 0 {
						announced[k] = e.Time
					}
				}, obs.KindChainSend)
			}}, {after: time.Minute}}
			fc.check = func(r *faultRun) {
				check(t, r.stream)
				if finAt == 0 {
					t.Fatal("the primary never sent a FIN")
				}
				// Outbound ordering, hop by hop from the tail of the chain.
				before := finAt
				for i := 1; i < n; i++ {
					at := announced[announce{r.replicas[i].Name(), uint64(finEnd)}]
					if at == 0 || at >= before {
						t.Errorf("%s announced the cursor past its FIN at %v, its predecessor released the FIN at %v: want earlier",
							r.replicas[i].Name(), at, before)
					}
					before = at
				}
			}
			fc.play(t)
		})
	}
}

// lostAckResponse is three full segments and a 462-byte tail.
const lostAckResponse = 3*1460 + 462

// lostAckCopy is a row that sends one lostAckResponse through a primary and
// a backup and loses the backup's multicast copy of the client's first pure
// ACK that covers the first segments full segments (loseBackupAckCopy).
func lostAckCopy(segments int) faultCase {
	fc := request(130, 2, lostAckResponse)
	var checkDropped func(*testing.T)
	fc.steps = []step{
		{do: func(r *faultRun) { checkDropped = loseBackupAckCopy(r, segments*1460) }},
		{after: time.Minute},
	}
	fc.check = func(r *faultRun) { checkDropped(r.t) }
	return fc
}

// TestLostAckCopyAtResponseEnd is operation 13 of the lossy churn census: a
// 4842-byte response (three full segments and a 462-byte tail) through a
// primary and a backup, and the backup's multicast copy of the client's
// first pure ACK that covers the third segment is lost. While Nagle held the
// tail that ACK was the client's last word — a delayed ACK with nothing
// behind it — so the backup never learnt its data had arrived, never
// released the tail, and the primary stayed send-gated behind it for good.
// With the tail and the FIN already delivered, the client's next packet is
// its own FIN, whose ACK field repairs the backup.
func TestLostAckCopyAtResponseEnd(t *testing.T) {
	lostAckCopy(3).play(t)
}

// TestLostAckCopyOpeningWindow is the tail-ACK-copy deadlock that the
// tail-ACK probe (DESIGN.md §7 item 5) repairs: the backup's copy of the
// client ACK that covers the second segment, and so opens the window for the
// third, is lost. The client holds two segments, both acknowledged, and has
// nothing more to say; the backup waits for that ACK, and the primary, all
// its data acknowledged, waits at its send gate for the backup. After one
// RTO of that silence the primary probes the client, the client answers, and
// the redirector multicasts the answer to the backup too.
func TestLostAckCopyOpeningWindow(t *testing.T) {
	fc := lostAckCopy(2)
	dropped := fc.check
	fc.check = func(r *faultRun) {
		dropped(r)
		if r.closedAt > 2*time.Second {
			t.Errorf("client closed %v after the dial, want within a couple of RTOs", r.closedAt)
		}
	}
	fc.play(t)
}

// loseBackupAckCopy loses the backup's multicast copy of the client's first
// pure ACK that covers the first covered bytes of the server's stream. The
// returned check fails the test unless exactly that one frame was lost.
func loseBackupAckCopy(r *faultRun, covered int) func(*testing.T) {
	// The covered bytes end at the server's ISS + 1 + covered; the client's
	// copy of the ISS is its IRS, read off the first segment it is sent.
	var coveredEnd tcp.Seq
	r.client.TCP().SetTrace(func(dir string, _, _ Endpoint, seg *tcp.Segment) {
		if dir == "in" && seg.Flags.Has(tcp.FlagSYN) {
			coveredEnd = seg.Seq.Add(1 + covered)
		}
	})
	backup, link, dropped := r.replicas[1], r.links[2], 0
	r.rd.Table().SetEncapTap(func(inner *ipv4.Packet, host Addr) {
		p := inner.Payload
		if dropped > 0 || coveredEnd == 0 || host != backup.Addr() || len(p) < tcp.HeaderLen {
			return
		}
		pureAck := len(p) == int(p[12]>>4)*4 && tcp.Flags(p[13]) == tcp.FlagACK
		if pureAck && tcp.Seq(binary.BigEndian.Uint32(p[8:])).GEQ(coveredEnd) {
			// The tap runs just before the copy is handed to the link: cut
			// the link for that instant (the check counts one frame).
			dropped++
			link.SetLoss(1)
			r.net.At(r.net.Now()+time.Microsecond, func() { link.SetLoss(0) })
		}
	})
	return func(t *testing.T) {
		t.Helper()
		if _, lost, _ := link.Stats(); dropped != 1 || lost[0]+lost[1] != 1 {
			t.Fatalf("dropped %d ACK copies, the backup's link lost %v frames: want exactly one", dropped, lost)
		}
	}
}

// TestLostFinalAckIsNotAProbeStorm: no crash, and the tail never sees the
// client's last word, a pure ACK of the whole answer — its multicast copy is
// lost, and the client, which does not close, sends nothing more. The tail's
// output stays unacknowledged, so it times out again and again, and each
// timeout starts the tail-silence rule (DESIGN.md §7 item 5). The suspicion
// that count raises ends it, so over four minutes the tail raises at most one
// suspicion per timeout of its own, each filtered by a liveness probe, and
// nobody is removed.
func TestLostFinalAckIsNotAProbeStorm(t *testing.T) {
	const answer = 1000
	var checkDropped func(*testing.T)
	var tail []obs.Kind // the tail's own timeouts and suspicions, in order
	faultCase{seed: 131, replicas: 2, send: make([]byte, answer), steps: []step{
		{do: func(r *faultRun) {
			checkDropped = loseBackupAckCopy(r, answer)
			r.net.Bus().Subscribe(func(e obs.Event) {
				if e.Node == r.replicas[1].Name() {
					tail = append(tail, e.Kind)
				}
			}, obs.KindRTO, obs.KindSuspicion)
		}},
		{after: 4 * time.Minute},
	}, verdict: verdict{echo: make([]byte, answer), chain: []int{0, 1}, check: func(r *faultRun) {
		checkDropped(t)
		rtos, suspicions, run, worst := 0, 0, 0, 0
		for _, k := range tail {
			if k == obs.KindRTO {
				rtos, run = rtos+1, 0
				continue
			}
			suspicions, run = suspicions+1, run+1
			worst = max(worst, run)
		}
		t.Logf("the tail timed out %d times and raised %d suspicions", rtos, suspicions)
		if worst > 1 {
			t.Errorf("the tail raised up to %d suspicions between two timeouts of its own, want at most one", worst)
		}
		if rtos < 5 {
			t.Errorf("the tail timed out %d times in four minutes: its output was acknowledged after all", rtos)
		}
	}}}.play(t)
}
