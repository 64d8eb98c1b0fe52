package hydranet

import (
	"bytes"
	"testing"
	"time"
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
			fc := faultCase{seed: int64(100 + i), replicas: 2, threshold: 2, send: payload, close: true,
				steps: []step{
					{after: phase.crashAt, echoed: phase.atBytes, do: crash(0)}, // always the original primary
					{after: 5 * time.Minute},
				},
				verdict: verdict{echo: payload, closed: true, chain: []int{1}}}
			if phase.name == "close" {
				var next *stream
				fc.steps = append(fc.steps,
					step{do: func(r *faultRun) { next = r.dial(r.client, testSvc, payload[:3000], true) }},
					step{after: 5 * time.Minute})
				fc.check = func(r *faultRun) {
					if !bytes.Equal(next.got, payload[:3000]) {
						t.Errorf("next connection echoed %d of 3000 bytes", len(next.got))
					}
				}
			}
			fc.play(t)
		})
	}
}

// TestCrashDuringCloseHandshake: the primary dies after the client's FIN is
// acknowledged but (possibly) before the server side finishes closing. The
// client must still terminate cleanly rather than hang in FIN-WAIT.
func TestCrashDuringCloseHandshake(t *testing.T) {
	faultCase{seed: 110, replicas: 2, threshold: 2, send: []byte("short"), close: true, steps: []step{
		{after: 8 * time.Millisecond, do: crash(0)}, // the data and FIN are out: mid-teardown
		{after: 5 * time.Minute},
	}, verdict: verdict{echo: []byte("short"), check: func(r *faultRun) {
		// A clean close is ideal but a late RST-free timeout is tolerated.
		if !r.closed {
			t.Error("client hung in teardown after primary crash")
		}
	}}}.play(t)
}

// TestAllReplicasDead: when the whole replica set fails, HydraNet-FT's
// guarantee is exhausted ("reliable communication as long as there is a
// path between the client and at least ONE operational server"). The
// client's connection must die a normal TCP death, the redirector table
// must empty, and later dials must fail rather than hang forever.
func TestAllReplicasDead(t *testing.T) {
	var again *stream
	faultCase{seed: 112, replicas: 2, threshold: 2, send: make([]byte, 200_000), steps: []step{
		{do: func(r *faultRun) { r.conn.OnReadable(nil) }}, // the client never reads its echo
		{after: 100 * time.Millisecond, do: func(r *faultRun) {
			for _, h := range r.replicas {
				h.Crash()
			}
		}},
		// Enough for the client's full retry budget; then a fresh dial
		// cannot succeed: it must fail, not hang.
		{after: 30 * time.Minute, do: func(r *faultRun) {
			if r.err == nil {
				t.Errorf("client connection still alive with zero operational servers (state %v)", r.conn.State())
			}
			again = r.dial(r.client, testSvc, nil, false)
		}},
		{after: 30 * time.Minute},
	}, verdict: verdict{
		// Faithful limitation: failure reports come from the replicas
		// themselves ("failure detectors on the hosts inform the
		// redirectors"), so with the whole set dead nobody reports and the
		// stale chain persists.
		chain: []int{0, 1},
		check: func(r *faultRun) {
			if !again.closed || again.err == nil {
				t.Errorf("dial against a dead service: closed=%v err=%v", again.closed, again.err)
			}
		}}}.play(t)
}

// TestSequentialCrashes: with three replicas, kill the primary, then kill
// its successor; the last survivor carries the connection home.
func TestSequentialCrashes(t *testing.T) {
	payload := pattern(1_000_000, 7, 0)
	faultCase{seed: 111, replicas: 3, threshold: 2, send: payload, steps: []step{
		// Stage the first crash by byte progress so it always lands inside
		// the transfer regardless of timing.
		{echoed: len(payload) / 5, do: crash(0)},
		// Wait for the first failover to complete, then kill the new
		// primary while the transfer is still in flight.
		{after: 50 * time.Millisecond, limit: 4 * time.Minute,
			until: func(r *faultRun) bool { return len(r.armed) == 0 && len(r.svc.Chain()) == 2 },
			do: func(r *faultRun) {
				if len(r.got) >= len(payload) {
					t.Fatal("transfer finished before the second crash could land")
				}
				r.replicas[1].Crash()
			}},
		{after: 4 * time.Minute},
	}, verdict: verdict{echo: payload, chain: []int{2}, check: func(r *faultRun) {
		if s := r.conn.State(); s.String() != "ESTABLISHED" {
			t.Errorf("client state = %v", s)
		}
	}}}.play(t)
}
