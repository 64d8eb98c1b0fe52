package hydranet_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/testbed"
)

// twoISPs models Figure 1 on the star: a second client population, clientB,
// behind its own redirector rd2, which is linked to rd and to both replicas.
//
//	client  — rd  —— s0, s1
//	clientB — rd2 ——/   (rd—rd2 linked; replicas linked to both redirectors)
type twoISPs struct {
	clientB *hydranet.Host
	rd2     *hydranet.Redirector
	b       *testbed.Stream // clientB's echo stream, once dialled
}

// setup is the Scenario's Setup: it adds clientB and rd2, and with mirrored
// makes rd2 rd's mirror before the service deploys.
func (w *twoISPs) setup(mirrored bool) func(*testbed.Run) {
	return func(r *testbed.Run) {
		w.clientB, w.rd2 = r.Net.AddHost("clientB", hydranet.HostConfig{}), r.Net.AddRedirector("rd2", hydranet.HostConfig{})
		link := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
		r.Net.Link(r.Redirector.Host, w.rd2.Host, link)
		r.Net.Link(w.clientB, w.rd2.Host, link)
		for _, s := range r.Replicas {
			r.Net.Link(s, w.rd2.Host, link)
		}
		r.Net.AutoRoute()
		if mirrored {
			r.Redirector.Mirror(w.rd2)
		}
	}
}

// dial connects clientB to the service through rd2 and sends send.
func (w *twoISPs) dial(r *testbed.Run, send []byte) { w.b = r.Dial(w.clientB, testSvc, send, false) }

// echoed is a verdict check: clientB read exactly its echo.
func (w *twoISPs) echoed(t *testing.T) func(*testbed.Run) {
	return func(r *testbed.Run) {
		if !w.b.Echoed() {
			t.Errorf("client B (mirror side): %d bytes, garbled=%v: want exactly the echo", w.b.Delivered, w.b.Garbled)
		}
		deliveryChecks(t, r)
	}
}

func TestMirroredRedirectorsServeBothPopulations(t *testing.T) {
	var w twoISPs
	row(t, testbed.Scenario{Seed: 41, Replicas: 2, Send: []byte("population A"), Setup: w.setup(true), Steps: []testbed.Step{
		{Do: func(r *testbed.Run) {
			// Both redirectors hold the entry.
			chain := []hydranet.Addr{r.Replicas[0].Addr(), r.Replicas[1].Addr()}
			for i, rd := range []*hydranet.Redirector{r.Redirector, w.rd2} {
				if e := rd.Table().Lookup(testSvc); e == nil || !slices.Equal(e.Chain, chain) {
					t.Fatalf("redirector %d entry = %+v", i+1, e)
				}
			}
			w.dial(r, []byte("population B"))
		}},
		{After: 10 * time.Second},
	}}, verdict{echo: true, check: w.echoed(t)})
}

func TestFailoverPropagatesToMirror(t *testing.T) {
	var w twoISPs
	payload := bytes.Repeat([]byte("z"), 400_000)
	row(t, testbed.Scenario{Seed: 42, Replicas: 2, Send: payload, Setup: w.setup(true),
		Faults: at(100*time.Millisecond, testbed.CrashPrimary, 0),
		Steps:  []testbed.Step{{Do: func(r *testbed.Run) { w.dial(r, payload) }}, {After: 100*time.Millisecond + 4*time.Minute}},
	}, verdict{echo: true, check: func(r *testbed.Run) {
		w.echoed(t)(r)
		// The mirror's table must have dropped the dead primary.
		if e := w.rd2.Table().Lookup(testSvc); e == nil || !slices.Equal(e.Chain, []hydranet.Addr{r.Replicas[1].Addr()}) {
			t.Fatalf("mirror entry after failover = %+v", e)
		}
	}})
}

// TestMirrorAddedLateConverges: deploy first, mirror afterwards: AddPeer
// must push existing state.
func TestMirrorAddedLateConverges(t *testing.T) {
	var w twoISPs
	row(t, testbed.Scenario{Seed: 43, Replicas: 2, Send: []byte("early"), Setup: w.setup(false), Steps: []testbed.Step{
		{Do: func(r *testbed.Run) {
			if w.rd2.Table().Lookup(testSvc) != nil {
				t.Fatal("mirror has the entry before mirroring was enabled")
			}
			r.Redirector.Mirror(w.rd2)
			r.Net.Settle()
			if w.rd2.Table().Lookup(testSvc) == nil {
				t.Fatal("late mirror did not converge")
			}
			w.dial(r, []byte("late but served"))
		}},
		{After: 10 * time.Second},
	}}, verdict{echo: true, check: w.echoed(t)})
}
