package hydranet_test

import (
	"testing"

	"hydranet/internal/testbed"
)

// TestFailoverScenarioAllocBudget pins what one fail-over scenario on a fresh
// Net allocates, topology build included: testbed.MeasureFailover with one
// backup, the primary killed mid-stream, detection, reconfiguration and the
// resumed stream. The count is dominated by building the Net — the protocol
// path itself allocates next to nothing — so a new per-object allocation in
// the frame pool, the scheduler, rmp or the route build shows here first.
//
// It takes 350–351 objects (359–363 under the race detector), four fewer than
// when each replica's tcp.Conn was an object of its own beside its ft-TCP
// record and app.Source allocated its progress; the budget is 10 % above.
func TestFailoverScenarioAllocBudget(t *testing.T) {
	const budget = 386
	var res testbed.FailoverResult
	allocs := testing.AllocsPerRun(1, func() {
		res = testbed.MeasureFailover(testbed.FailoverConfig{Threshold: 3, Seed: 1})
	})
	if res.ClientError != nil || res.Detected == 0 || res.Resumed == 0 {
		t.Fatalf("fail-over did not complete: %+v", res)
	}
	t.Logf("%.0f objects per scenario", allocs)
	if allocs > budget {
		t.Errorf("one fail-over scenario allocates %v objects, budget %d", allocs, budget)
	}
}
