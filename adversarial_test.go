package hydranet

import (
	"bytes"
	"testing"
	"time"
)

// TestPartitionedPrimaryTreatedAsFailed: the paper's congestion/"site
// disaster" case — the primary is alive but unreachable. It must be "shut
// down" (removed from the replica set) and the backup promoted, giving
// fail-stop behaviour for a non-crash fault.
func TestPartitionedPrimaryTreatedAsFailed(t *testing.T) {
	faultCase{seed: 31, replicas: 2, send: []byte("pre|"), steps: []step{
		{after: 2 * time.Second, do: func(r *faultRun) {
			r.links[1].SetLoss(1) // the primary's link: alive but unreachable
			r.conn.Write([]byte("post"))
		}},
		{after: 2 * time.Minute},
	}, verdict: verdict{echo: []byte("pre|post"), chain: []int{1}, check: func(r *faultRun) {
		if !r.replicas[0].Alive() {
			t.Error("test invariant: the partitioned host is alive")
		}
	}}}.play(t)
}

// TestIdleConnectionSurvivesCrash: the primary dies while the connection is
// idle. Nothing can be detected until traffic resumes — and then failover
// must still work.
func TestIdleConnectionSurvivesCrash(t *testing.T) {
	faultCase{seed: 32, replicas: 2, send: []byte("before|"), steps: []step{
		{after: 2 * time.Second, do: crash(0)},
		// A long idle period: no traffic, no detection possible.
		{after: 30 * time.Second, do: func(r *faultRun) {
			r.wantChain(0, 1)
			r.conn.Write([]byte("after")) // traffic resumes; detection and failover follow
		}},
		{after: 2 * time.Minute},
	}, verdict: verdict{echo: []byte("before|after"), chain: []int{1}}}.play(t)
}

// TestIdleCrashDetectedWithKeepalive: with client-side keepalive enabled,
// even an idle connection gives the estimator a signal — the probes flow
// through the redirector, go unanswered by the dead primary, and the
// backups' own retransmission-free probe handling plus the client's probe
// retransmissions trip the detector without any application traffic.
func TestIdleCrashDetectedWithKeepalive(t *testing.T) {
	faultCase{seed: 36, replicas: 2, threshold: 3, send: []byte("before|"), steps: []step{
		{do: func(r *faultRun) { r.conn.SetKeepAlive(2*time.Second, time.Second, 100) }},
		{after: 2 * time.Second, do: crash(0)},
		// No application traffic at all; keepalive probes are the only signal.
		{after: 2 * time.Minute, do: func(r *faultRun) {
			r.wantChain(1)
			r.conn.Write([]byte("after")) // the connection still works afterwards
		}},
		{after: 30 * time.Second},
	}, verdict: verdict{echo: []byte("before|after")}}.play(t)
}

// TestClientAbortTearsDownAllReplicas: a client RST is multicast like any
// other packet; every replica must drop its connection state.
func TestClientAbortTearsDownAllReplicas(t *testing.T) {
	faultCase{seed: 33, replicas: 3, send: []byte("hello"), steps: []step{
		{after: 2 * time.Second, do: func(r *faultRun) {
			for _, h := range r.replicas {
				if h.TCP().NumConns() != 1 {
					t.Fatalf("%s has %d conns before abort", h.Name(), h.TCP().NumConns())
				}
			}
			r.conn.Abort()
		}},
		{after: 5 * time.Second},
	}, verdict: verdict{noConns: true}}.play(t)
}

// TestClientCloseTearsDownAllReplicas: orderly shutdown propagates to every
// replica through chain-gated FINs.
func TestClientCloseTearsDownAllReplicas(t *testing.T) {
	faultCase{seed: 34, replicas: 3, send: []byte("goodbye"), close: true,
		steps:   []step{{after: 2 * time.Minute}},
		verdict: verdict{echo: []byte("goodbye"), closed: true, noConns: true}}.play(t)
}

// TestFTTransferUnderJitter: heavy reordering on every link (including the
// acknowledgment channel — UDP chain messages may arrive out of order, and
// the MaxSeq merge must tolerate that).
func TestFTTransferUnderJitter(t *testing.T) {
	payload := pattern(20_000, 17, 0)
	faultCase{seed: 37, replicas: 3, link: LinkConfig{Jitter: 1500 * time.Microsecond}, send: payload,
		steps: []step{{after: time.Minute}}, verdict: verdict{echo: payload}}.play(t)
}

// TestReplicaStreamAgreementUnderLoss: the atomicity property. Whatever the
// loss pattern, the byte streams deposited to the replica applications must
// be identical — no replica may deliver data another one missed.
func TestReplicaStreamAgreementUnderLoss(t *testing.T) {
	payload := pattern(150_000, 37, 0)
	streams := map[*Conn]*[]byte{} // what each replica's application consumed
	faultCase{seed: 35, replicas: 3, link: LinkConfig{Loss: 0.03}, send: payload,
		accept: func(c *Conn) { streams[c] = collect(c) },
		steps:  []step{{after: 10 * time.Minute}},
		verdict: verdict{check: func(r *faultRun) {
			var ref []byte
			for _, h := range r.replicas {
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
		}}}.play(t)
}
