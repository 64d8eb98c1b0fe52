package hydranet

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Bridges for golden_test.go, which lives in package hydranet_test so it can
// import internal/testbed (testbed imports this package).

// GoldenScenario is determinism_test.go's fingerprint row at seed 77.
func GoldenScenario(t *testing.T) string { return fingerprintRow(t, 77, nil) }

// captureFailover is the FT capture scenario as a row with in's observers:
// 1 MiB echoed through two replicas, the primary crashed 300 ms after the
// dial. The client sits 50 µs from the redirector while both replicas hang
// off 1 ms links, and the replicas get slightly different CPU cost models so
// their event streams are never tied. check, when not nil, is the rest of
// the verdict.
func captureFailover(in Instruments, check func(*faultRun)) faultCase {
	payload := pattern(1<<20, 31, 0)
	return faultCase{seed: 11, replicas: 2, link: LinkConfig{Delay: 50 * time.Microsecond}, in: in, threshold: 3,
		predeploy: func(r *faultRun) {
			r.replicas[0].SetProcessing(10*time.Microsecond, 0)
			r.replicas[1].SetProcessing(13*time.Microsecond, 0)
		},
		send:  payload,
		steps: []step{{after: 300 * time.Millisecond, do: crashPrimary}, readAll(len(payload), 2*time.Minute)},
		verdict: verdict{echo: payload, check: func(r *faultRun) {
			requireReassemblyGuardsIdle(r.t, r.net)
			if check != nil {
				check(r)
			}
		}}}
}

// requireReassemblyGuardsIdle fails the test if a host's reassembler evicted a
// partial datagram or dropped an oversize fragment. Both guards exist for
// hostile fragment streams; neither may ever shape a run of honest traffic.
func requireReassemblyGuardsIdle(t *testing.T, net *Net) {
	t.Helper()
	for _, h := range net.hosts {
		if st := h.ip.Reassembly(); st.Evicted != 0 || st.Oversize != 0 {
			t.Fatalf("%s: reassembler guards fired on honest traffic: %+v", h.Name(), st)
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// GoldenCapture is the capture scenario with a pcap and a 50 ms sampler
// named; it returns the two files Finish wrote.
func GoldenCapture(t *testing.T) (pcap, series []byte) {
	t.Helper()
	dir := t.TempDir()
	in := Instruments{
		Pcap:        filepath.Join(dir, "golden.pcap"),
		Series:      filepath.Join(dir, "golden.jsonl"),
		SampleEvery: 50 * time.Millisecond,
	}
	captureFailover(in, nil).play(t)
	return mustRead(t, in.Pcap), mustRead(t, in.Series)
}

// GoldenCaptureAudit is the same capture scenario with only the audit
// named; it returns the file Finish wrote.
func GoldenCaptureAudit(t *testing.T) []byte {
	t.Helper()
	in := Instruments{Audit: filepath.Join(t.TempDir(), "golden.audit.json")}
	captureFailover(in, nil).play(t)
	return mustRead(t, in.Audit)
}
