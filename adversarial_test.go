package hydranet_test

import (
	"bytes"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/testbed"
)

// TestPartitionedPrimaryTreatedAsFailed: the paper's congestion/"site
// disaster" case — the primary is alive but unreachable. It must be "shut
// down" (removed from the replica set) and the backup promoted, giving
// fail-stop behaviour for a non-crash fault.
func TestPartitionedPrimaryTreatedAsFailed(t *testing.T) {
	row(t, testbed.Scenario{Seed: 31, Replicas: 2, Send: []byte("pre|"), Faults: at(2*time.Second, testbed.Cut, 0),
		Steps: []testbed.Step{
			{After: 2 * time.Second, Do: func(r *testbed.Run) { r.Write([]byte("post")) }},
			{After: 2 * time.Minute},
		}}, verdict{echo: true, chain: []int{1}, check: func(r *testbed.Run) {
		if !r.Replicas[0].Alive() {
			t.Error("test invariant: the partitioned host is alive")
		}
	}})
}

// TestIdleConnectionSurvivesCrash: the primary dies while the connection is
// idle. Nothing can be detected until traffic resumes — and then failover
// must still work.
func TestIdleConnectionSurvivesCrash(t *testing.T) {
	row(t, testbed.Scenario{Seed: 32, Replicas: 2, Send: []byte("before|"), Faults: at(2*time.Second, testbed.Crash, 0),
		Steps: []testbed.Step{
			// A long idle period: no traffic, no detection possible.
			{After: 2*time.Second + 30*time.Second, Do: func(r *testbed.Run) {
				wantChain(t, r, 0, 1)
				r.Write([]byte("after")) // traffic resumes; detection and failover follow
			}},
			{After: 2 * time.Minute},
		}}, verdict{echo: true, chain: []int{1}})
}

// TestIdleCrashDetectedWithKeepalive: with client-side keepalive enabled,
// even an idle connection gives the estimator a signal — the probes flow
// through the redirector, go unanswered by the dead primary, and the
// backups' own retransmission-free probe handling plus the client's probe
// retransmissions trip the detector without any application traffic.
func TestIdleCrashDetectedWithKeepalive(t *testing.T) {
	row(t, testbed.Scenario{Seed: 36, Replicas: 2, Threshold: 3, Send: []byte("before|"), Faults: at(2*time.Second, testbed.Crash, 0),
		Steps: []testbed.Step{
			{Do: func(r *testbed.Run) { r.Conn.SetKeepAlive(2*time.Second, time.Second, 100) }},
			// No application traffic at all; keepalive probes are the only signal.
			{After: 2*time.Second + 2*time.Minute, Do: func(r *testbed.Run) {
				wantChain(t, r, 1)
				r.Write([]byte("after")) // the connection still works afterwards
			}},
			{After: 30 * time.Second},
		}}, verdict{echo: true})
}

// TestClientAbortTearsDownAllReplicas: a client RST is multicast like any
// other packet; every replica must drop its connection state.
func TestClientAbortTearsDownAllReplicas(t *testing.T) {
	row(t, testbed.Scenario{Seed: 33, Replicas: 3, Send: []byte("hello"), Steps: []testbed.Step{
		{After: 2 * time.Second, Do: func(r *testbed.Run) {
			for _, h := range r.Replicas {
				if h.TCP().NumConns() != 1 {
					t.Fatalf("%s has %d conns before abort", h.Name(), h.TCP().NumConns())
				}
			}
			r.Conn.Abort()
		}},
		{After: 5 * time.Second},
	}}, verdict{noConns: true})
}

// TestClientCloseTearsDownAllReplicas: orderly shutdown propagates to every
// replica through chain-gated FINs.
func TestClientCloseTearsDownAllReplicas(t *testing.T) {
	row(t, testbed.Scenario{Seed: 34, Replicas: 3, Send: []byte("goodbye"), Close: true,
		Steps: []testbed.Step{{After: 2 * time.Minute}}}, verdict{echo: true, closed: true, noConns: true})
}

// TestFTTransferUnderJitter: heavy reordering on every link (including the
// acknowledgment channel — UDP chain messages may arrive out of order, and
// the MaxSeq merge must tolerate that).
func TestFTTransferUnderJitter(t *testing.T) {
	row(t, testbed.Scenario{Seed: 37, Replicas: 3, Link: hydranet.LinkConfig{Jitter: 1500 * time.Microsecond},
		Send: pattern(20_000, 17, 0), Steps: []testbed.Step{{After: time.Minute}}}, verdict{echo: true})
}

// TestReplicaStreamAgreementUnderLoss: the atomicity property. Whatever the
// loss pattern, the byte streams deposited to the replica applications must
// be identical — no replica may deliver data another one missed. Each replica
// echoes what it records, so the client's reads are judged too: exactly-once
// delivery under 3 % loss through three replicas.
func TestReplicaStreamAgreementUnderLoss(t *testing.T) {
	payload := pattern(150_000, 37, 0)
	streams := map[*hydranet.Conn]*[]byte{} // what each replica's application consumed
	row(t, testbed.Scenario{Seed: 35, Replicas: 3, Link: hydranet.LinkConfig{Loss: 0.03}, Send: payload,
		Accept: func(c *hydranet.Conn) { streams[c] = recordEcho(c) },
		Steps:  []testbed.Step{{After: 10 * time.Minute}},
	}, verdict{echo: true, check: func(r *testbed.Run) {
		if deliveryChecks(t, r) == 0 {
			t.Error("the monitor judged none of the client's reads")
		}
		var ref []byte
		for _, h := range r.Replicas {
			var s []byte
			for _, c := range h.TCP().Conns() {
				if streams[c] == nil {
					t.Fatalf("%s: accepted conn not recorded", h.Name())
				}
				s = *streams[c]
			}
			// All streams must be prefixes of one another (the tail may
			// differ by in-flight gating), and near complete.
			if n := min(len(ref), len(s)); !bytes.Equal(ref[:n], s[:n]) {
				t.Fatalf("replica %s diverged from the common stream", h.Name())
			}
			if len(s) < len(payload)*9/10 {
				t.Errorf("replica %s consumed only %d of %d bytes", h.Name(), len(s), len(payload))
			}
			if ref == nil {
				ref = s
			}
		}
	}})
}

// recordEcho is app.Echo that keeps what it reads: it returns everything c
// has received, and writes it back as the send buffer allows.
func recordEcho(c *hydranet.Conn) *[]byte {
	got, sent := new([]byte), 0
	flush := func() {
		for sent < len(*got) {
			n := c.Write((*got)[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	buf := make([]byte, 4096)
	c.OnReadable(func() {
		for n := c.Read(buf); n > 0; n = c.Read(buf) {
			*got = append(*got, buf[:n]...)
		}
		flush()
	})
	c.OnWritable(flush)
	return got
}
