package hydranet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/testbed"
)

var updateGolden = flag.String("update-golden", "", "rewrite testdata/golden_outputs.json from this tree, recording the given commit label")

const goldenPath = "testdata/golden_outputs.json"

// goldenOutputs pins simulator outputs across commits: a performance PR
// proves "byte-identical before and after" by leaving this file untouched.
// Regenerate (-update-golden) only in a PR that means to change behaviour.
type goldenOutputs struct {
	RecordedAt    string   `json:"recorded_at"`
	CapturePcap   string   `json:"capture_pcap_sha256"`
	CaptureSeries string   `json:"capture_series_sha256"`
	CaptureAudit  string   `json:"capture_audit_sha256"`
	Scenario77    string   `json:"scenario77_sha256"`
	Figure4At128K []string `json:"figure4_128k"`
	// Experiments64K is every EXPERIMENTS.md table at seed 1 and 64 KiB per
	// transfer, as compact -json keyed by experiment name.
	Experiments64K map[string]string `json:"experiments_64k"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// computeGolden plays the capture scenario with a pcap and a 50 ms sampler
// named, then with only the audit named, and the fingerprint row at seed 77,
// before the Figure-4 points and the experiments.
func computeGolden(t *testing.T) goldenOutputs {
	dir := t.TempDir()
	in := hydranet.Instruments{Pcap: filepath.Join(dir, "golden.pcap"), Series: filepath.Join(dir, "golden.jsonl"),
		SampleEvery: 50 * time.Millisecond}
	captureRow(t, in, nil)
	audit := hydranet.Instruments{Audit: filepath.Join(dir, "golden.audit.json")}
	captureRow(t, audit, nil)
	g := goldenOutputs{
		CapturePcap:   sha(mustRead(t, in.Pcap)),
		CaptureSeries: sha(mustRead(t, in.Series)),
		CaptureAudit:  sha(mustRead(t, audit.Audit)),
		Scenario77:    sha([]byte(fingerprintRow(t, 77, nil))),
	}
	for _, size := range testbed.Figure4Sizes {
		for _, c := range testbed.Figure4Cases {
			r, info := testbed.RunMeasured(testbed.Config{Case: c, BufLen: size, TotalBytes: 128 << 10, Seed: 1})
			if r.Err != nil {
				t.Fatalf("%s/%d: %v", c, size, r.Err)
			}
			g.Figure4At128K = append(g.Figure4At128K, fmt.Sprintf(
				"%s/%d: bytes=%d started=%d finished=%d events=%d frames=%d stats=%+v",
				c, size, r.Bytes, r.Started, r.Finished, info.Events, info.Frames, r.Stats))
		}
	}
	g.Experiments64K = map[string]string{}
	for _, name := range testbed.ExperimentNames {
		tab, err := testbed.RunExperiment(name, testbed.Sweep{Seed: 1, Bytes: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(tab)
		if err != nil {
			t.Fatal(err)
		}
		g.Experiments64K[name] = string(b)
	}
	return g
}

// TestGoldenOutputs: the FT capture scenario's pcap and series exports, a
// second run's audit, the fingerprintRow(77) fingerprint, the
// 28-point Figure-4 table at 128 KiB and every experiment table at 64 KiB
// are exactly what the commit that recorded the golden file produced.
func TestGoldenOutputs(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden != "" {
		got.RecordedAt = *updateGolden
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenOutputs
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got.CapturePcap != want.CapturePcap {
		t.Errorf("capture pcap sha256 = %s, golden %s", got.CapturePcap, want.CapturePcap)
	}
	if got.CaptureSeries != want.CaptureSeries {
		t.Errorf("capture series sha256 = %s, golden %s", got.CaptureSeries, want.CaptureSeries)
	}
	if got.CaptureAudit != want.CaptureAudit {
		t.Errorf("capture audit sha256 = %s, golden %s", got.CaptureAudit, want.CaptureAudit)
	}
	if got.Scenario77 != want.Scenario77 {
		t.Errorf("fingerprintRow(77) sha256 = %s, golden %s", got.Scenario77, want.Scenario77)
	}
	if len(got.Figure4At128K) != len(want.Figure4At128K) {
		t.Fatalf("Figure-4 table has %d points, golden %d", len(got.Figure4At128K), len(want.Figure4At128K))
	}
	for i, w := range want.Figure4At128K {
		if got.Figure4At128K[i] != w {
			t.Errorf("Figure-4 point %d:\n  got    %s\n  golden %s", i, got.Figure4At128K[i], w)
		}
	}
	for _, name := range testbed.ExperimentNames {
		if got.Experiments64K[name] != want.Experiments64K[name] {
			t.Errorf("experiment %s at 64 KiB:\n  got    %s\n  golden %s", name, got.Experiments64K[name], want.Experiments64K[name])
		}
	}
}
