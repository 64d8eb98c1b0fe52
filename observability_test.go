package hydranet_test

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/testbed"
)

func TestSnapshotAndFailoverTimeline(t *testing.T) {
	// About a second of echo through three replicas: the 400 ms crash lands
	// mid-transfer.
	payload := make([]byte, 1<<20)
	var before hydranet.Snapshot
	row(t, testbed.Scenario{Seed: 7, Replicas: 3, Threshold: 3, Send: payload,
		Faults: at(400*time.Millisecond, testbed.CrashPrimary, 0), Steps: []testbed.Step{
			{After: 400 * time.Millisecond, Do: func(r *testbed.Run) { before = r.Net.Snapshot() }},
			readAll(len(payload), 2*time.Minute),
		}}, verdict{echo: true, check: func(r *testbed.Run) {
		if r.Detected <= 0 || r.Stall <= 0 {
			t.Fatalf("fail-over readings: detected %v, stall %v; want both positive", r.Detected, r.Stall)
		}
		// The client waits out detection and the promotion's repair, no more:
		// segments in flight at the crash may shorten the wait, not hide it.
		if d := r.Stall - r.Detected; d < -50*time.Millisecond || d > 50*time.Millisecond {
			t.Fatalf("client stall %v more than 50ms from detection %v", r.Stall, r.Detected)
		}

		snap := r.Net.Snapshot()

		byName := make(map[string]int)
		for i, h := range snap.Hosts {
			byName[h.Name] = i
		}
		for _, want := range []string{"client", "rd", "s0", "s1", "s2"} {
			if _, ok := byName[want]; !ok {
				t.Fatalf("snapshot missing host %q", want)
			}
		}
		if snap.Hosts[byName["s0"]].Alive {
			t.Error("crashed primary still marked alive")
		}
		s1 := snap.Hosts[byName["s1"]]
		if s1.Manager == nil || s1.Manager.Promotions != 1 {
			t.Errorf("s1 manager counters = %+v, want 1 promotion", s1.Manager)
		}
		cl := snap.Hosts[byName["client"]]
		if cl.Conns.BytesReceived != uint64(len(payload)) {
			t.Errorf("client bytes_received = %d, want %d", cl.Conns.BytesReceived, len(payload))
		}
		if cl.RTT == nil || cl.RTT.Count == 0 {
			t.Error("client RTT histogram empty")
		}
		if len(snap.Redirectors) != 1 || snap.Redirectors[0].Table.Multicast == 0 {
			t.Errorf("redirector snapshot = %+v", snap.Redirectors)
		}
		if snap.Redirectors[0].Mgmt == nil || snap.Redirectors[0].Mgmt.HostsFailed != 1 {
			t.Errorf("mgmt counters = %+v, want 1 host failed", snap.Redirectors[0].Mgmt)
		}

		// The snapshot must mirror the direct component counters exactly.
		if got, want := snap.Redirectors[0].Table.MulticastCopies, r.Redirector.Table().Stats().MulticastCopies; got != want {
			t.Errorf("snapshot copies %d != direct stats %d", got, want)
		}

		// Interval diff covers only activity after the crash instant.
		d := snap.Diff(before)
		if d.Time <= 0 {
			t.Errorf("diff time = %v", d.Time)
		}
		dc := d.Hosts[byName["client"]]
		if dc.Conns.BytesReceived == 0 || dc.Conns.BytesReceived >= uint64(len(payload)) {
			t.Errorf("diffed client bytes = %d, want strictly between 0 and total", dc.Conns.BytesReceived)
		}

		// And the whole thing serializes.
		out, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var parsed map[string]any
		if err := json.Unmarshal(out, &parsed); err != nil {
			t.Fatal(err)
		}
		if rds, ok := parsed["redirectors"].([]any); !ok || len(rds) != 1 {
			t.Fatalf("redirectors section missing in JSON: %v", parsed["redirectors"])
		}
	}})
}

// TestRedirectorStatsUnderLossyBackupLinks drops multicast copies on the
// backup links and checks the redirector's accounting stays consistent: one
// tunnel copy per chain member per match, no tunnel errors, and the fabric
// (not the redirector) accounts the lost copies.
func TestRedirectorStatsUnderLossyBackupLinks(t *testing.T) {
	payload := pattern(64*1024, 7, 0)
	// A high threshold keeps the detector quiet, so the chain keeps all
	// three members and the copies-per-match ratio stays fixed.
	row(t, testbed.Scenario{Seed: 11, Replicas: 3, Threshold: 50, Send: payload, Setup: func(r *testbed.Run) {
		r.Links[2].SetLoss(0.03) // s1's and s2's
		r.Links[3].SetLoss(0.03)
	}, Steps: []testbed.Step{readAll(len(payload), 2*time.Minute)}}, verdict{echo: true, check: func(r *testbed.Run) {
		rs := r.Redirector.Table().Stats()
		if rs.Multicast == 0 {
			t.Fatal("no multicast matches recorded")
		}
		if rs.MulticastCopies != 3*rs.Multicast {
			t.Errorf("copies = %d, want 3×%d: redirector accounting must not see link loss",
				rs.MulticastCopies, rs.Multicast)
		}
		if rs.TunnelErrors != 0 {
			t.Errorf("tunnel errors = %d, want 0 (loss is not a routing failure)", rs.TunnelErrors)
		}

		snap := r.Net.Snapshot()
		var lost uint64
		for _, l := range snap.Links {
			if l.A == "s1" || l.A == "s2" { // rd is side B on these links
				lost += l.AB.Lost + l.BA.Lost
			}
		}
		if lost == 0 {
			t.Error("lossy links recorded no loss — test is not exercising the scenario")
		}
		// Copies the redirector emitted but the fabric dropped must show up as
		// the gap between tunnel copies and backup deliveries.
		delivered := uint64(0)
		for _, h := range snap.Hosts {
			if h.Name == "s1" || h.Name == "s2" {
				delivered += h.IP.Delivered
			}
		}
		if delivered == 0 {
			t.Error("backups received nothing despite an intact chain")
		}
	}})
}

// TestObserversDoNotPerturbRun plays one seeded fail-over twice: bare, and
// with the capture, the invariant monitor and its audit attached. Observation never perturbs a run (DESIGN.md §5), so both fire
// the same events, end at the same instant and deliver the same client
// bytes.
func TestObserversDoNotPerturbRun(t *testing.T) {
	play := func(in hydranet.Instruments) *testbed.Run {
		payload := make([]byte, 512*1024)
		return testbed.Scenario{Seed: 5, Replicas: 3, Observe: in, Threshold: 3, Send: payload,
			Faults: at(400*time.Millisecond, testbed.CrashPrimary, 0),
			Steps:  []testbed.Step{{After: 400 * time.Millisecond}, readAll(len(payload), 2*time.Minute)},
		}.Play()
	}
	dir := t.TempDir()
	bare := play(hydranet.Instruments{})
	observed := play(hydranet.Instruments{Pcap: filepath.Join(dir, "run.pcap"), Invariants: true,
		Audit: filepath.Join(dir, "run.audit.json")})
	for _, p := range observed.Problems() {
		t.Error(p)
	}
	if !bare.Echoed() || len(bare.Unmet) != 0 {
		t.Fatalf("bare run: the client read %d bytes, garbled=%v, unmet %v: want the whole echo",
			bare.Delivered, bare.Garbled, bare.Unmet)
	}
	if sum := observed.Summary; sum.PcapRecords == 0 || sum.Audit == nil {
		t.Fatalf("observers did not all attach: %d pcap records, audit %v", sum.PcapRecords, sum.Audit != nil)
	}
	if b, o := bare.Net.EventsFired(), observed.Net.EventsFired(); b != o {
		t.Errorf("events fired: bare %d, observed %d", b, o)
	}
	if b, o := bare.Net.Now(), observed.Net.Now(); b != o {
		t.Errorf("final instant: bare %v, observed %v", b, o)
	}
	if b, o := bare.Delivered, observed.Delivered; b != o {
		t.Errorf("client bytes: bare %d, observed %d", b, o)
	}
}
