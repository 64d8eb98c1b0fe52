package testbed

import (
	"reflect"
	"testing"

	"hydranet/internal/sweep"
	"hydranet/internal/ttcp"
)

// TestParallelSweepMatchesSerial: fanning runs across workers changes which
// host thread executes a simulation, never its result. Every run owns a
// private scheduler, network and frame pool, so serial and parallel sweeps
// must agree field for field. Run under -race this also proves the workers
// share no simulator state.
func TestParallelSweepMatchesSerial(t *testing.T) {
	var cfgs []Config
	for _, c := range Figure4Cases {
		for seed := int64(1); seed <= 2; seed++ {
			cfgs = append(cfgs, Config{
				Case: c, BufLen: 512, TotalBytes: 64 * 1024, Seed: seed,
			})
		}
	}
	run := func(i int) ttcp.Result { return Run(cfgs[i]) }
	serial := sweep.Map(1, len(cfgs), run)
	parallel := sweep.Map(4, len(cfgs), run)
	for i := range cfgs {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("cfg %+v: serial %+v != parallel %+v", cfgs[i], serial[i], parallel[i])
		}
	}
}
