package hydranet_test

import (
	"testing"
	"time"

	"hydranet/internal/testbed"
)

func TestFTEchoPrimaryAndBackup(t *testing.T) {
	row(t, testbed.Scenario{Seed: 1, Replicas: 2, Send: []byte("hello, replicated world"),
		Steps: []testbed.Step{{After: 5 * time.Second}}}, verdict{echo: true, chain: []int{0, 1}, check: func(r *testbed.Run) {
		// Both replicas must have processed the request (hot standby).
		for i, rep := range r.Service.Replicas() {
			if rep.Port.Conns() != 1 {
				t.Errorf("replica %d tracks %d conns, want 1", i, rep.Port.Conns())
			}
		}
	}})
}

// TestFTTransferMatchesPlainTCP: a bulk transfer through a three-replica
// chain echoes every byte unchanged.
func TestFTTransferMatchesPlainTCP(t *testing.T) {
	row(t, testbed.Scenario{Seed: 2, Replicas: 3, Send: pattern(64*1024, 13, 0),
		Steps: []testbed.Step{{After: 5 * time.Minute}}}, verdict{echo: true})
}

func TestFailoverMidStream(t *testing.T) {
	first, second := "before the crash | ", "after the crash"
	row(t, testbed.Scenario{Seed: 3, Replicas: 2, Send: []byte(first), Faults: at(3*time.Second, testbed.Crash, 0),
		Steps: []testbed.Step{
			// Kill the primary, then keep talking on the same connection.
			{After: 3 * time.Second, Do: func(r *testbed.Run) {
				if !r.Echoed() {
					t.Fatalf("pre-crash echo: %d of %d bytes", r.Delivered, len(first))
				}
				r.Write([]byte(second))
			}},
			{After: 60 * time.Second},
		}}, verdict{echo: true, chain: []int{1}, check: func(r *testbed.Run) {
		if r.Closed {
			t.Errorf("client connection died during failover: %v", r.Err)
		}
		if p := r.Service.Primary(); p == nil || p.Host != r.Replicas[1] {
			t.Error("s1 was not promoted to primary")
		}
	}})
}

// TestFailoverTransparentToClientAPI: the client stack must observe no
// error, reset, or reconnect: the connection object survives and the byte
// stream is continuous.
func TestFailoverTransparentToClientAPI(t *testing.T) {
	// A 512 KiB echo over 10 Mbit/s takes on the order of a second, so
	// 150 ms is well inside the transfer.
	row(t, testbed.Scenario{Seed: 4, Replicas: 3, Send: pattern(512*1024, 1, 0), Faults: at(150*time.Millisecond, testbed.Crash, 0),
		Steps: []testbed.Step{{After: 150 * time.Millisecond}, {After: 5 * time.Minute}}},
		verdict{echo: true, chain: []int{1, 2}, check: func(r *testbed.Run) {
			if s := r.Conn.State(); s.String() != "ESTABLISHED" {
				t.Errorf("client state = %v, want ESTABLISHED", s)
			}
		}})
}

// TestBackupCrashIsInvisible: killing a backup (the chain tail) must not
// disturb the client beyond a brief stall.
func TestBackupCrashIsInvisible(t *testing.T) {
	row(t, testbed.Scenario{Seed: 5, Replicas: 2, Send: []byte("one|"), Faults: at(2*time.Second, testbed.Crash, 1),
		Steps: []testbed.Step{
			{After: 2 * time.Second, Do: func(r *testbed.Run) { r.Write([]byte("two")) }},
			{After: 60 * time.Second},
		}}, verdict{echo: true, chain: []int{0}})
}
