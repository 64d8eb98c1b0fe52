package hydranet_test

import (
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/invariant"
	"hydranet/internal/testbed"
)

// testSvc is the service every row deploys.
var testSvc = testbed.StarService

// verdict is what a row's run must show at its end besides what every row
// must: an audit that checked something (the client's reads too, if it read
// any) and found no violation, every step met and every fault fired, and a
// Finish that succeeds. Zero fields are not checked.
type verdict struct {
	echo    bool  // the client read exactly the bytes it expects
	closed  bool  // the client's connection closed without an error
	chain   []int // the service's chain, by replica index
	noConns bool  // no replica holds a connection
	// finishErr is what Session.Finish's error must say instead.
	finishErr string
	// violated names the rules the run breaks on purpose: each must report
	// a violation, and no other rule may.
	violated []string
	check    func(*testbed.Run)
}

// row plays sc, a run on the Figure-3 star, under the invariant monitor and
// judges it against v (testbed.Run.Problems, then v's own fields).
func row(t *testing.T, sc testbed.Scenario, v verdict) {
	t.Helper()
	sc.Observe.Invariants = true
	r := sc.Play()
	if v.finishErr != "" {
		if err := r.ObserveErr; err == nil || !strings.Contains(err.Error(), v.finishErr) {
			t.Fatalf("Finish = %v, want the %s error", err, v.finishErr)
		}
		r.ObserveErr = nil // the error v expects
	}
	for _, p := range r.Problems(v.violated...) {
		t.Error(p)
	}
	if r.Session == nil {
		t.FailNow() // the observers never attached: nothing ran
	}
	if v.echo && !r.Echoed() {
		t.Errorf("the client read %d bytes, garbled=%v: want exactly the echo", r.Delivered, r.Garbled)
	}
	if v.closed && (!r.Closed || r.Err != nil) {
		t.Errorf("client connection closed=%v err=%v, want a clean close", r.Closed, r.Err)
	}
	if v.chain != nil {
		wantChain(t, r, v.chain...)
	}
	for _, h := range r.Replicas {
		if n := h.TCP().NumConns(); v.noConns && n != 0 {
			t.Errorf("%s still holds %d connections", h.Name(), n)
		}
	}
	if v.check != nil {
		v.check(r)
	}
}

// deliveryChecks logs and returns how many client reads the monitor judged.
func deliveryChecks(t *testing.T, r *testbed.Run) (checks uint64) {
	t.Helper()
	for _, rr := range r.Summary.Audit.Rules {
		if rr.Rule == invariant.RuleDelivery {
			t.Logf("%s: %d checks", rr.Rule, rr.Checks)
			checks = rr.Checks
		}
	}
	return checks
}

// wantChain fails the test unless the service's chain is the replicas at
// idx, in order.
func wantChain(t *testing.T, r *testbed.Run, idx ...int) {
	t.Helper()
	var want []hydranet.Addr
	for _, i := range idx {
		want = append(want, r.Replicas[i].Addr())
	}
	if got := r.Service.Chain(); !slices.Equal(got, want) {
		t.Errorf("chain at %v = %v, want %v", r.Net.Now(), got, want)
	}
}

// readAll is a step that runs the net a second at a time until the client
// has read n bytes, for at most limit after the dial.
func readAll(n int, limit time.Duration) testbed.Step {
	return testbed.Step{After: time.Second, Limit: limit, Until: func(r *testbed.Run) bool { return r.Delivered == n }}
}

// at is a fault of kind k on replica i, t after the dial.
func at(t time.Duration, k testbed.FaultKind, i int) []testbed.Fault {
	return []testbed.Fault{{At: t, Kind: k, Replica: i}}
}

// pattern returns n bytes of i*k, plus i>>shift when shift > 0: a stream
// whose bytes depend on their offset.
func pattern(n, k, shift int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * k)
		if shift > 0 {
			b[i] += byte(i >> shift)
		}
	}
	return b
}

// collect attaches a reader that accumulates everything received on c.
func collect(c *hydranet.Conn) *[]byte {
	out := new([]byte)
	app.Collect(c, out)
	return out
}

// captureRow plays the FT capture scenario with in's observers as a row:
// 1 MiB echoed through two replicas, the primary crashed 300 ms after the
// dial. The client sits 50 µs from the redirector while both replicas hang
// off 1 ms links, and the replicas get slightly different CPU cost models so
// their event streams are never tied. check, when not nil, is the rest of
// the verdict.
func captureRow(t *testing.T, in hydranet.Instruments, check func(*testbed.Run)) {
	t.Helper()
	payload := pattern(1<<20, 31, 0)
	row(t, testbed.Scenario{Seed: 11, Replicas: 2, Link: hydranet.LinkConfig{Delay: 50 * time.Microsecond},
		Observe: in, Threshold: 3, Send: payload,
		Setup: func(r *testbed.Run) {
			r.Replicas[0].SetProcessing(10*time.Microsecond, 0)
			r.Replicas[1].SetProcessing(13*time.Microsecond, 0)
		},
		Steps:  []testbed.Step{{After: 300 * time.Millisecond}, readAll(len(payload), 2*time.Minute)},
		Faults: at(300*time.Millisecond, testbed.CrashPrimary, 0),
	}, verdict{echo: true, check: func(r *testbed.Run) {
		requireReassemblyGuardsIdle(t, append([]*hydranet.Host{r.Client, r.Redirector.Host}, r.Replicas...)...)
		if check != nil {
			check(r)
		}
	}})
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireReassemblyGuardsIdle fails the test if a host's reassembler evicted
// a partial datagram or dropped an oversize fragment. Both guards exist for
// hostile fragment streams; neither may ever shape a run of honest traffic.
func requireReassemblyGuardsIdle(t *testing.T, hosts ...*hydranet.Host) {
	t.Helper()
	for _, h := range hosts {
		if st := h.IP().Reassembly(); st.Evicted != 0 || st.Oversize != 0 {
			t.Fatalf("%s: reassembler guards fired on honest traffic: %+v", h.Name(), st)
		}
	}
}
