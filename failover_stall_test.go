package hydranet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hydranet/internal/app"
)

// crashStall is one monitored crash scenario: the longest the client went
// without a byte from the crash on, and, timed from the crash, when the
// redirector reconfigured and when that longest gap ended.
type crashStall struct {
	detected, resumed, stall time.Duration
	delivered, chain         int
	clientErr                error
	violations               uint64
}

// measureCrashStall streams payload through an echo service on nReplicas,
// kills replica victim crashAt into the stream and runs four more minutes
// under the invariant monitor.
func measureCrashStall(t *testing.T, seed int64, nReplicas, victim, threshold int, crashAt time.Duration, payload []byte) crashStall {
	t.Helper()
	net, client, rd, replicas := ftTopology(t, seed, nReplicas)
	sess, err := net.Instrument(Instruments{Scenario: t.Name(), Invariants: true})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: threshold}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	var res crashStall
	var crashTime time.Duration
	rd.Daemon().OnReconfig(func(_ ServiceID, failed []Addr) {
		for _, f := range failed {
			if f != replicas[victim].Addr() {
				t.Errorf("reconfiguration removed live host %s", f)
			} else if res.detected == 0 {
				res.detected = net.Now() - crashTime
			}
		}
	})
	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnClosed(func(err error) { res.clientErr = err })
	lastByte := net.Now()
	buf := make([]byte, 2048)
	conn.OnReadable(func() {
		for {
			n := conn.Read(buf)
			if n == 0 {
				return
			}
			now := net.Now()
			res.delivered += n
			if gap := now - lastByte; crashTime > 0 && gap > res.stall {
				res.stall, res.resumed = gap, now-crashTime
			}
			lastByte = now
		}
	})
	app.Source(conn, payload, false)

	net.RunFor(crashAt)
	if res.delivered == 0 || res.delivered == len(payload) {
		t.Fatalf("%d of %d bytes echoed at the crash instant: not mid-stream", res.delivered, len(payload))
	}
	crashTime = net.Now()
	replicas[victim].Crash()
	net.RunFor(4 * time.Minute)

	sum, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res.violations = sum.Audit.TotalViolations()
	res.chain = len(svc.Chain())
	return res
}

// TestLosslessChainIsQuiet: with no loss and no crash, a chain of two or three
// replicas gives the client nothing to repair. Each replica acknowledges held
// bytes when its gate opens; a duplicate ACK for an in-order segment waiting
// at the gate would start fast retransmit and NewReno recovery against the
// client's own healthy stream, slowing three replicas most. At threshold 1
// a single count trips the detector, so no gate may hold bytes for a whole
// RTO either.
func TestLosslessChainIsQuiet(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i*7 + i>>10)
	}
	var finished [4]time.Duration
	for _, n := range []int{2, 3} {
		net, client, rd, replicas := ftTopology(t, 12, n)
		opts := FTOptions{Detector: DetectorParams{RetransmitThreshold: 1}}
		if _, err := net.DeployFT(testSvc, rd, replicas, opts, echoAccept()); err != nil {
			t.Fatal(err)
		}
		net.Settle()
		start := net.Now()
		received := streamClient(t, net, client, payload)
		for *received < len(payload) && net.Now() < start+time.Minute {
			net.RunFor(10 * time.Millisecond)
		}
		if *received != len(payload) {
			t.Fatalf("%d replicas: client received %d of %d bytes", n, *received, len(payload))
		}
		finished[n] = net.Now() - start
		var suspicions uint64
		for _, h := range net.Snapshot().Hosts {
			if h.Manager != nil {
				suspicions += h.Manager.Suspicions
			}
		}
		st := client.TCP().ConnTotals()
		if st.Retransmits != 0 || st.DupAcksSeen != 0 || suspicions != 0 {
			t.Errorf("%d replicas, lossless: client retransmitted %d segments after %d duplicate ACKs; %d suspicions; want all 0",
				n, st.Retransmits, st.DupAcksSeen, suspicions)
		}
	}
	if finished[3] > finished[2]+finished[2]/10 {
		t.Errorf("3 replicas took %v, 2 took %v: more than 10%% apart", finished[3], finished[2])
	}
}

// TestServerPushBackupCrash: the service answers with 256 KiB the moment the
// client connects, and the backup dies mid-answer. The client has nothing to
// send, so no client retransmission tells the primary anything: its send gate
// holds the rest of the answer behind a silent successor, and each RTO of
// that silence counts toward the detector threshold (the gate-stall rule).
// The primary's own backed-off timeouts alone leave the answer short for
// minutes.
func TestServerPushBackupCrash(t *testing.T) {
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i*11 + i>>8)
	}
	net, client, rd, replicas := ftTopology(t, 7, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{},
		func(c *Conn) { app.Source(c, payload, false) })
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	start := net.Now()
	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(conn)
	net.RunFor(150 * time.Millisecond)
	if len(*got) == 0 || len(*got) == len(payload) {
		t.Fatalf("%d of %d bytes at the crash instant: not mid-answer", len(*got), len(payload))
	}
	replicas[1].Crash()
	for len(*got) < len(payload) && net.Now() < start+10*time.Second {
		net.RunFor(10 * time.Millisecond)
	}
	if !bytes.Equal(*got, payload) {
		t.Fatalf("client received %d of %d bytes within 10 s of connecting", len(*got), len(payload))
	}
	if chain := svc.Chain(); len(chain) != 1 || chain[0] != replicas[0].Addr() {
		t.Errorf("chain after the backup crash = %v, want the primary alone", chain)
	}
}

// TestMiddleCrashResumesAtDetection: what a client waits after a replica dies
// is the time the detector takes and nothing more. When the middle of three
// replicas is spliced out, the tail announces its cursors to its new
// predecessor at once (ReplicatedPort.SetUpstream), so the primary's gates
// open one chain hop after the reconfiguration — not one backed-off
// retransmission of the tail later, which cost 0.45–6.5 s with every remaining
// replica alive. A primary crash is held to the same bound (promotion repairs
// the stream at once), and at threshold k it is detected after k client
// retransmissions timed from a measured RTT — also when the promoted backup's
// ISS lies in the upper half of sequence space. A backup crash is held to the
// same bound, and its detection to twice the primary's at the same threshold:
// the primary's gates hold bytes behind the silent backup, and each RTO of
// that silence counts (the gate-stall rule), not only the client's backed-off
// retransmissions. The mirror holds a primary's detection to the backup's
// plus 10 ms: the tail counts each RTO its output waits on the silent
// primary (the tail-silence rule).
func TestMiddleCrashResumesAtDetection(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i*13 + i>>9)
	}
	modes := []struct {
		name             string
		replicas, victim int
	}{
		{"primary", 2, 0},
		{"backup_of_2", 2, 1},
		{"middle_of_3", 3, 1},
	}
	const slack, mirrorSlack = 50 * time.Millisecond, 10 * time.Millisecond
	primaryDetect := map[string]time.Duration{}
	t.Logf("%-12s %9s %8s  %11s %11s %10s", "victim", "threshold", "crash at", "detect [ms]", "resume [ms]", "stall [ms]")
	for _, m := range modes {
		for _, threshold := range []int{1, 2, 3, 4, 6, 8} {
			for i, crashAt := range []time.Duration{320 * time.Millisecond, 570 * time.Millisecond} {
				cell := fmt.Sprintf("threshold=%d crash at %v", threshold, crashAt)
				id := m.name + " " + cell
				r := measureCrashStall(t, int64(300+10*threshold+i), m.replicas, m.victim, threshold, crashAt, payload)
				t.Logf("%-12s %9d %8v  %11.0f %11.0f %10.0f", m.name, threshold, crashAt,
					float64(r.detected)/1e6, float64(r.resumed)/1e6, float64(r.stall)/1e6)
				if r.clientErr != nil || r.delivered != len(payload) {
					t.Errorf("%s: %d of %d bytes echoed, client error %v", id, r.delivered, len(payload), r.clientErr)
				}
				if r.detected == 0 || r.chain != m.replicas-1 {
					t.Errorf("%s: crash detected after %v, chain of %d left, want %d", id, r.detected, r.chain, m.replicas-1)
				}
				if r.violations != 0 {
					t.Errorf("%s: %d invariant violations", id, r.violations)
				}
				if r.resumed-r.detected > slack {
					t.Errorf("%s: client stalled %v and resumed %v after the reconfiguration at %v; want at most %v",
						id, r.stall, r.resumed-r.detected, r.detected, slack)
				}
				if m.victim == 0 {
					primaryDetect[cell] = r.detected
					continue
				}
				p := primaryDetect[cell]
				if r.detected > 2*p {
					t.Errorf("%s: detected after %v, more than twice the primary's %v", id, r.detected, p)
				}
				if m.name == "backup_of_2" && p > r.detected+mirrorSlack {
					t.Errorf("%s: the primary's crash was detected after %v, more than %v after the backup's %v",
						cell, p, mirrorSlack, r.detected)
				}
			}
		}
	}
}

// TestGatedPrimaryProbesOnlyASilentClient: the tail-ACK probe is for a client
// with nothing outstanding. When the middle of three replicas dies mid-echo,
// the primary's deposit gate holds the client's bytes, and the client resends
// them on its own timer. A probe as well would draw an answer that races that
// timer: the tail counts it as a client retransmission only if the client has
// already gone back to its oldest unacknowledged byte, so detection moved by a
// whole RTO from one crash instant to the next. The client's stack counts each
// probe it receives (a zero-length segment below its rcvNxt) as a peer
// retransmission, and nothing else sends it one here.
func TestGatedPrimaryProbesOnlyASilentClient(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i*13 + i>>9)
	}
	for i, crashAt := range []time.Duration{320 * time.Millisecond, 570 * time.Millisecond} {
		net, client, rd, replicas := ftTopology(t, int64(400+i), 3)
		opts := FTOptions{Detector: DetectorParams{RetransmitThreshold: 8}}
		if _, err := net.DeployFT(testSvc, rd, replicas, opts, echoAccept()); err != nil {
			t.Fatal(err)
		}
		net.Settle()
		received := streamClient(t, net, client, payload)
		net.RunFor(crashAt)
		replicas[1].Crash()
		net.RunFor(4 * time.Minute)
		if *received != len(payload) {
			t.Errorf("crash at %v: client received %d of %d bytes", crashAt, *received, len(payload))
		}
		if n := client.TCP().ConnTotals().PeerRetransmits; n != 0 {
			t.Errorf("crash at %v: the client received %d probes or duplicates, want 0", crashAt, n)
		}
	}
}
