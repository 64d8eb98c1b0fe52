package hydranet

import (
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

// TestMiddleCrashResumesAtDetection: what a client waits after a replica dies
// is the time the detector takes and nothing more. When the middle of three
// replicas is spliced out, the tail announces its cursors to its new
// predecessor at once (ReplicatedPort.SetUpstream), so the primary's gates
// open one chain hop after the reconfiguration — not one backed-off
// retransmission of the tail later, which cost 0.45–6.5 s with every remaining
// replica alive. A primary crash is held to the same bound (promotion repairs
// the stream at once), and at threshold k it is detected after k client
// retransmissions timed from a measured RTT — also when the promoted backup's
// ISS lies in the upper half of sequence space. A backup crash in a chain of
// two is logged for EXPERIMENTS.md A1 and only has to complete: with nothing
// in flight the primary hears only the client's retransmissions (ROADMAP 1(b)).
func TestMiddleCrashResumesAtDetection(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i*13 + i>>9)
	}
	modes := []struct {
		name             string
		replicas, victim int
		bounded          bool // the longest gap ends within slack of the reconfiguration
	}{
		{"primary", 2, 0, true},
		{"backup_of_2", 2, 1, false},
		{"middle_of_3", 3, 1, true},
	}
	const slack = 50 * time.Millisecond
	t.Logf("%-12s %9s %8s  %11s %11s %10s", "victim", "threshold", "crash at", "detect [ms]", "resume [ms]", "stall [ms]")
	for _, m := range modes {
		for _, threshold := range []int{1, 2, 3, 4, 6, 8} {
			for i, crashAt := range []time.Duration{320 * time.Millisecond, 570 * time.Millisecond} {
				id := fmt.Sprintf("%s threshold=%d crash at %v", m.name, threshold, crashAt)
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
				if m.bounded && r.resumed-r.detected > slack {
					t.Errorf("%s: client stalled %v and resumed %v after the reconfiguration at %v; want at most %v",
						id, r.stall, r.resumed-r.detected, r.detected, slack)
				}
			}
		}
	}
}
