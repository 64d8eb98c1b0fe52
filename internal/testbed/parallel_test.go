package testbed

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestParallelSweepMatchesSerial: fanning an experiment's runs across
// workers changes which host thread executes a simulation, never its
// result. Every run owns a private scheduler, network and frame pool, so the
// -json of a serial and a parallel sweep must be the same bytes. Run under
// -race this also proves the workers share no simulator state.
func TestParallelSweepMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Sweep
	}{
		{"a1b", Sweep{Seed: 1, Seeds: 2}},
		{"fig4", Sweep{Seed: 1, Bytes: 64 << 10}},
		{"a5", Sweep{Seed: 1, Seeds: 2}},
	} {
		var out [2]bytes.Buffer
		for i, workers := range []int{1, 4} {
			tc.s.Parallel = workers
			tab, err := RunExperiment(tc.name, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Failures) > 0 {
				t.Errorf("%s at %d workers: %v", tc.name, workers, tab.Failures)
			}
			if err := json.NewEncoder(&out[i]).Encode(tab); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
			t.Errorf("%s: serial and parallel -json differ:\n%s\n%s", tc.name, out[0].String(), out[1].String())
		}
	}
}
