package hydranet_test

import (
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/testbed"
)

// TestCrashAtEveryPhase kills the primary at increasingly late points of a
// connection's life — before the SYN, between SYN and data, during the bulk
// transfer, just before the close, and in it — and requires the same
// client-side outcome every time: the full echo arrives and the connection
// closes cleanly. In the close phase the last echoed byte arrives with the
// server's FIN, so all that is left in flight is the client's ACK of it: the
// survivor finishes alone, nobody retransmits, and nobody can report the
// crash until the next connection's SYN goes unanswered.
func TestCrashAtEveryPhase(t *testing.T) {
	payload := pattern(120_000, 31, 0)
	phases := []struct {
		name    string
		crashAt time.Duration // after the dial (for pre-data phases)
		atBytes int           // crash once this many bytes are echoed
	}{
		{"before-syn", 0, 0},
		{"during-handshake", 2 * time.Millisecond, 0},
		{"first-data", 12 * time.Millisecond, 0},
		{"mid-transfer", 0, len(payload) / 4},
		{"late-transfer", 0, len(payload) * 3 / 4},
		{"close", 0, len(payload)},
	}
	for i, phase := range phases {
		t.Run(phase.name, func(t *testing.T) {
			sc := testbed.Scenario{Seed: int64(100 + i), Replicas: 2, Threshold: 2, Send: payload, Close: true,
				// Always the original primary.
				Faults: []testbed.Fault{{At: phase.crashAt, Echoed: phase.atBytes, Kind: testbed.Crash}},
				Steps:  []testbed.Step{{After: phase.crashAt + 5*time.Minute}}}
			v := verdict{echo: true, closed: true, chain: []int{1}}
			if phase.name == "close" {
				var next *testbed.Stream
				sc.Steps = append(sc.Steps,
					testbed.Step{Do: func(r *testbed.Run) { next = r.Dial(r.Client, testSvc, payload[:3000], true) }},
					testbed.Step{After: 5 * time.Minute})
				v.check = func(r *testbed.Run) {
					if !next.Echoed() {
						t.Errorf("next connection echoed %d of 3000 bytes", next.Delivered)
					}
				}
			}
			row(t, sc, v)
		})
	}
}

// TestOldAckDoesNotStrandSender: 5 % loss on every link and the primary dead
// from the dial. After the fail-over the new primary has 2 920 bytes in flight
// and the echo's last 4 341 bytes and its FIN queued when the client, its send
// cursor pulled back by a timeout, acknowledges the flight with an ACK below
// rcvNxt. Unless that ACK sends what waits, nothing else does: the client sat
// in FIN-WAIT-2 at 7 300 bytes for good (TestOldAckSendsQueuedData).
func TestOldAckDoesNotStrandSender(t *testing.T) {
	row(t, testbed.Scenario{Seed: 193, Replicas: 2, Threshold: 2, Link: hydranet.LinkConfig{Loss: 0.05},
		Send: pattern(11_641, 7, 0), Close: true, Faults: at(0, testbed.CrashPrimary, 0),
		Steps: []testbed.Step{{After: 5 * time.Minute}},
	}, verdict{echo: true, closed: true})
}

// TestCrashDuringCloseHandshake: the primary dies after the client's FIN is
// acknowledged but (possibly) before the server side finishes closing. The
// client must still terminate cleanly rather than hang in FIN-WAIT.
func TestCrashDuringCloseHandshake(t *testing.T) {
	row(t, testbed.Scenario{Seed: 110, Replicas: 2, Threshold: 2, Send: []byte("short"), Close: true,
		Faults: at(8*time.Millisecond, testbed.Crash, 0), // the data and FIN are out: mid-teardown
		Steps:  []testbed.Step{{After: 8*time.Millisecond + 5*time.Minute}},
	}, verdict{echo: true, check: func(r *testbed.Run) {
		// A clean close is ideal but a late RST-free timeout is tolerated.
		if !r.Closed {
			t.Error("client hung in teardown after primary crash")
		}
	}})
}

// TestAllReplicasDead: when the whole replica set fails, HydraNet-FT's
// guarantee is exhausted ("reliable communication as long as there is a
// path between the client and at least ONE operational server"). The
// client's connection must die a normal TCP death and later dials must fail
// rather than hang forever; the stale chain stays (see the verdict). The
// client stops reading on purpose, as the hand-built test it replaced did:
// its connection dies retransmitting its upload, so the audit's
// client-delivery rule has nothing to check.
func TestAllReplicasDead(t *testing.T) {
	var again *testbed.Stream
	row(t, testbed.Scenario{Seed: 112, Replicas: 2, Threshold: 2, Send: make([]byte, 200_000),
		Faults: []testbed.Fault{{At: 100 * time.Millisecond, Kind: testbed.Crash, Replica: 0},
			{At: 100 * time.Millisecond, Kind: testbed.Crash, Replica: 1}},
		Steps: []testbed.Step{
			{Do: func(r *testbed.Run) { r.Conn.OnReadable(nil) }}, // the client never reads its echo
			// Enough for the client's full retry budget; then a fresh dial
			// cannot succeed: it must fail, not hang.
			{After: 100*time.Millisecond + 30*time.Minute, Do: func(r *testbed.Run) {
				if r.Err == nil {
					t.Errorf("client connection still alive with zero operational servers (state %v)", r.Conn.State())
				}
				again = r.Dial(r.Client, testSvc, nil, false)
			}},
			{After: 30 * time.Minute},
		}}, verdict{
		// Faithful limitation: failure reports come from the replicas
		// themselves ("failure detectors on the hosts inform the
		// redirectors"), so with the whole set dead nobody reports and the
		// stale chain persists.
		chain: []int{0, 1},
		check: func(r *testbed.Run) {
			if !again.Closed || again.Err == nil {
				t.Errorf("dial against a dead service: closed=%v err=%v", again.Closed, again.Err)
			}
		}})
}

// TestSequentialCrashes: with three replicas, kill the primary, then kill
// its successor; the last survivor carries the connection home.
func TestSequentialCrashes(t *testing.T) {
	payload := pattern(1_000_000, 7, 0)
	row(t, testbed.Scenario{Seed: 111, Replicas: 3, Threshold: 2, Send: payload,
		// Stage the first crash by byte progress so it always lands inside
		// the transfer regardless of timing.
		Faults: []testbed.Fault{{Echoed: len(payload) / 5, Kind: testbed.Crash}},
		Steps: []testbed.Step{
			// Wait for the first failover to complete, then kill the new
			// primary while the transfer is still in flight.
			{After: 50 * time.Millisecond, Limit: 4 * time.Minute,
				Until: func(r *testbed.Run) bool { return len(r.Service.Chain()) == 2 },
				Do: func(r *testbed.Run) {
					if r.Delivered >= len(payload) {
						t.Fatal("transfer finished before the second crash could land")
					}
					r.Replicas[1].Crash()
				}},
			{After: 4 * time.Minute},
		}}, verdict{echo: true, chain: []int{2}, check: func(r *testbed.Run) {
		if s := r.Conn.State(); s.String() != "ESTABLISHED" {
			t.Errorf("client state = %v", s)
		}
	}})
}
