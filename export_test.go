package hydranet

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Bridges for golden_test.go, which lives in package hydranet_test so it can
// import internal/testbed (testbed imports this package).

// GoldenScenario is the determinism_test.go fingerprint scenario.
func GoldenScenario(seed int64) string { return runScenario(seed, scenarioOpts{}) }

// captureTopology builds a 4-host star with delay structure: the client sits
// 50 µs from the redirector while both replicas hang off 1 ms backbone links,
// and the replicas get slightly different CPU cost models so their event
// streams are never tied.
func captureTopology(t *testing.T, seed int64) (*Net, *Host, *Redirector, []*Host) {
	t.Helper()
	net := New(Config{Seed: seed})
	client := net.AddHost("client", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	s0 := net.AddHost("s0", HostConfig{})
	s1 := net.AddHost("s1", HostConfig{})
	net.Link(client, rd.Host, LinkConfig{Rate: 10_000_000, Delay: 50 * time.Microsecond})
	backbone := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Link(s0, rd.Host, backbone)
	net.Link(s1, rd.Host, backbone)
	net.AutoRoute()
	s0.SetProcessing(10*time.Microsecond, 0)
	s1.SetProcessing(13*time.Microsecond, 0)
	return net, client, rd, []*Host{s0, s1}
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

// runCaptureFailover runs the FT capture scenario — deploy, stream 1 MiB,
// crash the primary at 300 ms, recover — through Instrument/Finish with the
// named observers (the replicas are health-watched).
func runCaptureFailover(t *testing.T, in Instruments) Summary {
	t.Helper()
	net, client, rd, replicas := captureTopology(t, 11)
	sess, err := net.Instrument(in)
	if err != nil {
		t.Fatal(err)
	}

	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 3}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()

	payload := make([]byte, 1024*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	received := streamClient(t, net, client, payload)

	net.RunFor(300 * time.Millisecond)
	svc.CrashPrimary()
	for *received < len(payload) && net.Now() < 2*time.Minute {
		net.RunFor(time.Second)
	}
	if *received != len(payload) {
		t.Fatalf("client received %d of %d bytes", *received, len(payload))
	}
	sum, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	requireReassemblyGuardsIdle(t, net)
	return sum
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
	runCaptureFailover(t, in)
	return mustRead(t, in.Pcap), mustRead(t, in.Series)
}

// GoldenCaptureSpansAudit is the same capture scenario with spans and the
// audit named instead; it returns the two files Finish wrote. It is a run of
// its own because spans add series columns.
func GoldenCaptureSpansAudit(t *testing.T) (spans, audit []byte) {
	t.Helper()
	dir := t.TempDir()
	in := Instruments{
		Spans: filepath.Join(dir, "golden.spans.json"),
		Audit: filepath.Join(dir, "golden.audit.json"),
	}
	runCaptureFailover(t, in)
	return mustRead(t, in.Spans), mustRead(t, in.Audit)
}
