package hydranet_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/core"
	"hydranet/internal/metrics"
	"hydranet/internal/redirector"
	"hydranet/internal/rmp"
	"hydranet/internal/tcp"
	"hydranet/internal/testbed"
)

// fillUints sets every uint64 reachable from v — through structs, non-nil
// pointers and slices — to x. By Diff's rule those are the counters.
func fillUints(v reflect.Value, x uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(x)
	case reflect.Pointer:
		if !v.IsNil() {
			fillUints(v.Elem(), x)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			fillUints(v.Field(i), x)
		}
	case reflect.Slice:
		for i := range v.Len() {
			fillUints(v.Index(i), x)
		}
	}
}

// checkUints reports, by field path, every uint64 reachable from v that is
// not want, and every nil pointer.
func checkUints(t *testing.T, path string, v reflect.Value, want uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint64:
		if v.Uint() != want {
			t.Errorf("%s = %d, want %d", path, v.Uint(), want)
		}
	case reflect.Pointer:
		if v.IsNil() {
			t.Errorf("%s is nil", path)
			return
		}
		checkUints(t, path, v.Elem(), want)
	case reflect.Struct:
		for i := range v.NumField() {
			checkUints(t, path+"."+v.Type().Field(i).Name, v.Field(i), want)
		}
	case reflect.Slice:
		for i := range v.Len() {
			checkUints(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i), want)
		}
	}
}

// fullSnapshot is the maximal shape Diff must cover — a host, a link and a
// redirector, every pointer set, an RTT bucket — with every counter x.
func fullSnapshot(x uint64) hydranet.Snapshot {
	s := hydranet.Snapshot{
		Hosts: []hydranet.HostSnapshot{{Name: "h0", Alive: true, Manager: &core.Stats{},
			RTT: &metrics.HistogramSnapshot{Buckets: []metrics.HistogramBucket{{Lo: 1, Hi: 2}}}}},
		Links:       []hydranet.LinkSnapshot{{A: "h0", B: "h1"}},
		Redirectors: []hydranet.RedirectorSnapshot{{Name: "rd", Mgmt: &rmp.RedirectorDaemonStats{}}},
	}
	fillUints(reflect.ValueOf(&s).Elem(), x)
	return s
}

// TestSnapshotDiffCoversEveryCounter holds Diff to its rule over the whole
// schema: with every counter 7 in cur and 3 in prev, each must be 4 in the
// diff (7 is a counter passed through, 0 one dropped), while gauges and
// flags come from cur.
func TestSnapshotDiffCoversEveryCounter(t *testing.T) {
	cur, prev := fullSnapshot(7), fullSnapshot(3)
	checkUints(t, "Snapshot", reflect.ValueOf(cur.Diff(prev)), 4)

	cur.Hosts[0].TCP.Conns, prev.Hosts[0].TCP.Conns = 9, 2
	cur.Hosts[0].ProcBacklog, prev.Hosts[0].ProcBacklog = 5, 1
	cur.Hosts[0].Alive = false
	if h := cur.Diff(prev).Hosts[0]; h.TCP.Conns != 9 || h.ProcBacklog != 5 || h.Alive {
		t.Errorf("gauges: conns %d, backlog %v, alive %v; want cur's 9, 5ns, false", h.TCP.Conns, h.ProcBacklog, h.Alive)
	}
}

// TestSnapshotDiffLeavesInputs: Diff copies every slice and pointee before
// subtracting into it, so neither snapshot changes.
func TestSnapshotDiffLeavesInputs(t *testing.T) {
	cur, prev := fullSnapshot(7), fullSnapshot(3)
	cur.Diff(prev)
	checkUints(t, "cur", reflect.ValueOf(cur), 7)
	checkUints(t, "prev", reflect.ValueOf(prev), 3)
}

func TestSnapshotDiff(t *testing.T) {
	prev := hydranet.Snapshot{
		Time: time.Second,
		Hosts: []hydranet.HostSnapshot{{Name: "s0", Alive: true,
			Frames: hydranet.FrameCounters{Sent: 100, Received: 200},
			Conns:  tcp.ConnStats{BytesSent: 1000, Retransmits: 3},
			RTT:    &metrics.HistogramSnapshot{Count: 3, Buckets: []metrics.HistogramBucket{{Lo: 1, Hi: 2, Count: 3}}}}},
		Links:       []hydranet.LinkSnapshot{{A: "s0", B: "rd", AB: hydranet.LinkDirCounters{TxFrames: 100, Lost: 2}}},
		Redirectors: []hydranet.RedirectorSnapshot{{Name: "rd", Table: redirector.Stats{Multicast: 10, MulticastCopies: 30}}},
	}
	cur := hydranet.Snapshot{
		Time: 3 * time.Second,
		Hosts: []hydranet.HostSnapshot{{Name: "s0",
			Frames: hydranet.FrameCounters{Sent: 150, Received: 260},
			Conns:  tcp.ConnStats{BytesSent: 1500, Retransmits: 7},
			RTT:    &metrics.HistogramSnapshot{Count: 5, Buckets: []metrics.HistogramBucket{{Lo: 0, Hi: 1, Count: 2}, {Lo: 1, Hi: 2, Count: 3}}}}},
		Links:       []hydranet.LinkSnapshot{{A: "s0", B: "rd", AB: hydranet.LinkDirCounters{TxFrames: 150, Lost: 5}}},
		Redirectors: []hydranet.RedirectorSnapshot{{Name: "rd", Table: redirector.Stats{Multicast: 25, MulticastCopies: 75}}},
	}
	d := cur.Diff(prev)
	if d.Time != 2*time.Second {
		t.Errorf("Time = %v", d.Time)
	}
	if h := d.Hosts[0]; h.Frames != (hydranet.FrameCounters{Sent: 50, Received: 60}) ||
		h.Conns != (tcp.ConnStats{BytesSent: 500, Retransmits: 4}) || h.Alive {
		t.Errorf("host diff = %+v; liveness must reflect the current snapshot", h)
	}
	if h := d.Hosts[0].RTT; !reflect.DeepEqual(*h, cur.Hosts[0].RTT.Diff(*prev.Hosts[0].RTT)) {
		t.Errorf("RTT diff = %+v, not the histogram's own Diff", h)
	}
	if l := d.Links[0].AB; l != (hydranet.LinkDirCounters{TxFrames: 50, Lost: 3}) {
		t.Errorf("link diff = %+v", l)
	}
	if r := d.Redirectors[0].Table; r != (redirector.Stats{Multicast: 15, MulticastCopies: 45}) {
		t.Errorf("redirector diff = %+v", r)
	}
	// An entry past prev's end passes through unchanged.
	cur.Hosts = append(cur.Hosts, hydranet.HostSnapshot{Name: "s9", Frames: hydranet.FrameCounters{Sent: 7}})
	if d = cur.Diff(prev); d.Hosts[1].Frames.Sent != 7 {
		t.Errorf("new host not passed through: %+v", d.Hosts[1])
	}
}

// TestSnapshotDiffMgmtCounters: interval diffs cover the redirector's
// management-daemon counters field by field, and a redirector with no entry
// in the previous snapshot passes through.
func TestSnapshotDiffMgmtCounters(t *testing.T) {
	prev := hydranet.Snapshot{Time: time.Second, Redirectors: []hydranet.RedirectorSnapshot{{
		Name:  "rd",
		Table: redirector.Stats{Redirected: 10, Multicast: 5, MulticastCopies: 15},
		Mgmt: &rmp.RedirectorDaemonStats{Registrations: 3, Leaves: 1, Suspicions: 2, ProbesSent: 20,
			HostsFailed: 1, Reconfigs: 1, CongestionEvictions: 0},
	}}}
	cur := hydranet.Snapshot{Time: 3 * time.Second, Redirectors: []hydranet.RedirectorSnapshot{{
		Name:  "rd",
		Table: redirector.Stats{Redirected: 25, Multicast: 12, MulticastCopies: 36},
		Mgmt: &rmp.RedirectorDaemonStats{Registrations: 4, Leaves: 1, Suspicions: 5, ProbesSent: 32,
			HostsFailed: 2, Reconfigs: 3, CongestionEvictions: 1},
	}, {Name: "rd2", Mgmt: &rmp.RedirectorDaemonStats{Registrations: 7}}}}

	d := cur.Diff(prev)
	if d.Time != 2*time.Second || len(d.Redirectors) != 2 {
		t.Fatalf("diff time %v, %d redirectors; want 2s, 2", d.Time, len(d.Redirectors))
	}
	rd := d.Redirectors[0]
	if rd.Table != (redirector.Stats{Redirected: 15, Multicast: 7, MulticastCopies: 21}) {
		t.Errorf("table diff = %+v", rd.Table)
	}
	wantMgmt := rmp.RedirectorDaemonStats{Registrations: 1, Leaves: 0, Suspicions: 3, ProbesSent: 12,
		HostsFailed: 1, Reconfigs: 2, CongestionEvictions: 1}
	if rd.Mgmt == nil || *rd.Mgmt != wantMgmt {
		t.Errorf("mgmt diff = %+v, want %+v", rd.Mgmt, wantMgmt)
	}
	if rd2 := d.Redirectors[1]; rd2.Mgmt == nil || rd2.Mgmt.Registrations != 7 {
		t.Errorf("unmatched redirector not passed through: %+v", rd2)
	}
}

// TestSnapshotDiffMgmtNilPrev: a daemon started between the two snapshots
// diffs against zero; one that stopped reporting stays nil.
func TestSnapshotDiffMgmtNilPrev(t *testing.T) {
	prev := hydranet.Snapshot{Time: time.Second, Redirectors: []hydranet.RedirectorSnapshot{{Name: "rd"}}}
	want := rmp.RedirectorDaemonStats{Registrations: 6, ProbesSent: 9, Reconfigs: 2}
	cur := hydranet.Snapshot{Time: 2 * time.Second, Redirectors: []hydranet.RedirectorSnapshot{{Name: "rd", Mgmt: &want}}}
	if m := cur.Diff(prev).Redirectors[0].Mgmt; m == nil || *m != want {
		t.Fatalf("nil-prev mgmt diff = %+v", m)
	}
	if m := prev.Diff(cur).Redirectors[0].Mgmt; m != nil {
		t.Fatalf("nil-current mgmt produced a diff: %+v", m)
	}
}

// TestSnapshotAllocBudget pins Net.Snapshot's allocations, since
// failover_sweep takes one per scenario inside its timed run. On its
// five-host Section-5 LAN after an FT echo it takes 2, with or without the
// race detector: one store for every section, the hosts' RTT snapshots and
// ft-TCP manager stats and the redirector daemon's stats, and one array for
// the RTT buckets.
func TestSnapshotAllocBudget(t *testing.T) {
	row(t, testbed.Scenario{Seed: 3, Testbed: testbed.CaseFailover, Replicas: 3, Send: make([]byte, 100_000),
		Steps: []testbed.Step{{After: 10 * time.Second}}}, verdict{echo: true, check: func(r *testbed.Run) {
		if allocs := testing.AllocsPerRun(20, func() { r.Net.Snapshot() }); allocs > 2 {
			t.Errorf("Net.Snapshot allocates %v times, budget 2", allocs)
		}
	}})
}
