package hydranet_test

import (
	"fmt"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/testbed"
)

// TestLosslessChainIsQuiet: with no loss and no crash, a chain of two or three
// replicas gives the client nothing to repair. Each replica acknowledges held
// bytes when its gate opens; a duplicate ACK for an in-order segment waiting
// at the gate would start fast retransmit and NewReno recovery against the
// client's own healthy stream, slowing three replicas most. At threshold 1
// a single count trips the detector, so no gate may hold bytes for a whole
// RTO either.
func TestLosslessChainIsQuiet(t *testing.T) {
	payload := pattern(1<<20, 7, 10)
	var finished [4]time.Duration
	for _, n := range []int{2, 3} {
		row(t, testbed.Scenario{Seed: 12, Replicas: n, Threshold: 1, Send: payload, Steps: []testbed.Step{
			{After: 10 * time.Millisecond, Limit: time.Minute, Until: func(r *testbed.Run) bool { return r.Delivered == len(payload) }},
		}}, verdict{echo: true, check: func(r *testbed.Run) {
			finished[n] = r.Net.Now() - r.Dialled
			if st := r.Client.TCP().ConnTotals(); st.Retransmits != 0 || st.DupAcksSeen != 0 || r.Suspicions != 0 {
				t.Errorf("the client retransmitted %d segments after %d duplicate ACKs; %d suspicions; want all 0",
					st.Retransmits, st.DupAcksSeen, r.Suspicions)
			}
		}})
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
	payload := pattern(256<<10, 11, 8)
	row(t, testbed.Scenario{Seed: 7, Replicas: 2, Accept: func(c *hydranet.Conn) { app.Source(c, payload, false) }, Echo: payload,
		Faults: at(150*time.Millisecond, testbed.Crash, 1), Steps: []testbed.Step{
			{After: 150 * time.Millisecond, Do: func(r *testbed.Run) {
				if r.Delivered == 0 || r.Delivered == len(payload) {
					t.Fatalf("%d of %d bytes at the crash instant: not mid-answer", r.Delivered, len(payload))
				}
			}},
			{After: 10 * time.Millisecond, Limit: 10 * time.Second, Until: func(r *testbed.Run) bool { return r.Delivered == len(payload) }},
		}}, verdict{echo: true, chain: []int{0}})
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
	payload := pattern(1<<20, 13, 9)
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
		var survivors []int
		for i := 0; i < m.replicas; i++ {
			if i != m.victim {
				survivors = append(survivors, i)
			}
		}
		for _, threshold := range []int{1, 2, 3, 4, 6, 8} {
			for i, crashAt := range []time.Duration{320 * time.Millisecond, 570 * time.Millisecond} {
				cell := fmt.Sprintf("threshold=%d crash at %v", threshold, crashAt)
				id := m.name + " " + cell
				// Timed from the crash: when the redirector reconfigured, and
				// when the longest gap between two reads ended.
				var detected, resumed, stall time.Duration
				row(t, testbed.Scenario{Seed: int64(300 + 10*threshold + i), Replicas: m.replicas, Threshold: threshold, Send: payload,
					Faults: at(crashAt, testbed.Crash, m.victim),
					Steps: []testbed.Step{
						{After: crashAt, Do: func(r *testbed.Run) {
							if r.Delivered == 0 || r.Delivered == len(payload) {
								t.Fatalf("%s: %d of %d bytes echoed at the crash instant: not mid-stream", id, r.Delivered, len(payload))
							}
						}},
						{After: 4 * time.Minute},
					}}, verdict{echo: true, chain: survivors, check: func(r *testbed.Run) {
					stall, resumed = r.Stall, r.StallEnd-r.CrashedAt
					if detected = r.Detected; r.Err != nil || detected == 0 || r.FalseReconfigs != 0 {
						t.Errorf("%s: client error %v, crash detected after %v, %d reconfigurations removed live hosts",
							id, r.Err, detected, r.FalseReconfigs)
					}
				}})
				t.Logf("%-12s %9d %8v  %11.0f %11.0f %10.0f", m.name, threshold, crashAt,
					float64(detected)/1e6, float64(resumed)/1e6, float64(stall)/1e6)
				if resumed-detected > slack {
					t.Errorf("%s: client stalled %v and resumed %v after the reconfiguration at %v; want at most %v",
						id, stall, resumed-detected, detected, slack)
				}
				if m.victim == 0 {
					primaryDetect[cell] = detected
					continue
				}
				p := primaryDetect[cell]
				if detected > 2*p {
					t.Errorf("%s: detected after %v, more than twice the primary's %v", id, detected, p)
				}
				if m.name == "backup_of_2" && p > detected+mirrorSlack {
					t.Errorf("%s: the primary's crash was detected after %v, more than %v after the backup's %v",
						cell, p, mirrorSlack, detected)
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
	payload := pattern(1<<20, 13, 9)
	for i, crashAt := range []time.Duration{320 * time.Millisecond, 570 * time.Millisecond} {
		row(t, testbed.Scenario{Seed: int64(400 + i), Replicas: 3, Threshold: 8, Send: payload,
			Faults: at(crashAt, testbed.Crash, 1), Steps: []testbed.Step{{After: crashAt + 4*time.Minute}},
		}, verdict{echo: true, check: func(r *testbed.Run) {
			if n := r.Client.TCP().ConnTotals().PeerRetransmits; n != 0 {
				t.Errorf("crash at %v: the client received %d probes or duplicates, want 0", crashAt, n)
			}
		}})
	}
}
