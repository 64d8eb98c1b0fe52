package hydranet

import "testing"

// Bridges for golden_test.go, which lives in package hydranet_test so it can
// import internal/testbed (testbed imports this package).

// GoldenScenario is the determinism_test.go fingerprint scenario.
func GoldenScenario(seed int64) string { return runScenario(seed, scenarioOpts{}) }

// GoldenCapture runs the serial FT capture scenario of parallel_test.go and
// returns its pcap and series-JSONL exports.
func GoldenCapture(t *testing.T) (pcap, series []byte) {
	a := runParallelScenario(t, 1)
	return a.pcap, a.series
}
