package hydranet

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hydranet/internal/capture"
	"hydranet/internal/ipv4"
	"hydranet/internal/obs"
	"hydranet/internal/scope"
)

// requireNothingAttached fails unless the net is as bare as New left it: no
// bus subscriber on any kind, no frame or encap tap and no scheduler event.
func requireNothingAttached(t *testing.T, net *Net) {
	t.Helper()
	for _, k := range obs.Kinds() {
		if net.bus.Enabled(k) {
			t.Errorf("bus has a subscriber for %s", k)
		}
	}
	if len(net.frameTaps) != 0 || len(net.encapTaps) != 0 {
		t.Errorf("%d frame taps, %d encap taps attached", len(net.frameTaps), len(net.encapTaps))
	}
	if p := net.sched.Pending(); p != 0 {
		t.Errorf("%d scheduler events pending", p)
	}
}

// TestInstrumentZeroValueAttachesNothing: Instruments{} is a run without
// observers — what lets testbed and bench call Instrument unconditionally
// and still match an uninstrumented run to the last fired event.
func TestInstrumentZeroValueAttachesNothing(t *testing.T) {
	net, _, _, _, _ := ftTopology(Config{Seed: 1}, 2, LinkConfig{})
	sess, err := net.Instrument(Instruments{})
	if err != nil {
		t.Fatal(err)
	}
	requireNothingAttached(t, net)
	sum, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Audit != nil || sum.Failover != (FailoverReport{}) || sum.PcapRecords != 0 || sum.Series != 0 {
		t.Errorf("zero Instruments reported %+v", sum)
	}
	if _, err := sess.Finish(); err == nil {
		t.Error("second Finish returned no error")
	}
}

// TestInstrumentOrderIsEnforced: the attach-order rule is an error, not a
// comment. A monitor attached after DeployFT misses the registrations and
// audits a run clean on a third fewer checks; Instrument refuses instead,
// and a refused call creates no file and attaches nothing.
func TestInstrumentOrderIsEnforced(t *testing.T) {
	everything := func(dir string) Instruments {
		return Instruments{
			Pcap:   filepath.Join(dir, "x.pcap"),
			Series: filepath.Join(dir, "x.jsonl"),
			Audit:  filepath.Join(dir, "x.audit.json"),
		}
	}
	requireEmpty := func(dir string) {
		t.Helper()
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("refused Instrument left %d files behind", len(files))
		}
	}

	t.Run("after DeployFT", func(t *testing.T) {
		net, _, rd, replicas, _ := ftTopology(Config{Seed: 1}, 2, LinkConfig{})
		if _, err := net.DeployFT(testSvc, rd, replicas, FTOptions{}, echoAccept()); err != nil {
			t.Fatal(err)
		}
		pending := net.sched.Pending()
		dir := t.TempDir()
		if sess, err := net.Instrument(everything(dir)); err == nil || sess != nil {
			t.Fatalf("Instrument after DeployFT = (%v, %v), want an error", sess, err)
		}
		if net.sched.Pending() != pending {
			t.Error("refused Instrument scheduled an event")
		}
		net.RunFor(2 * time.Minute) // registration and chain set-up drain
		requireNothingAttached(t, net)
		requireEmpty(dir)
	})
	t.Run("second call", func(t *testing.T) {
		net, _, _, _, _ := ftTopology(Config{Seed: 1}, 2, LinkConfig{})
		if _, err := net.Instrument(Instruments{}); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if sess, err := net.Instrument(everything(dir)); err == nil || sess != nil {
			t.Fatalf("second Instrument = (%v, %v), want an error", sess, err)
		}
		requireNothingAttached(t, net)
		requireEmpty(dir)
	})
}

// TestInstrumentEverythingOn runs the capture fail-over scenario with every
// observer named: Finish must leave all three artifacts on disk, each
// readable by the in-repo loader the tools use, report a clean audit and a
// complete fail-over — and the other observers must not change one byte of
// what the capture saw.
func TestInstrumentEverythingOn(t *testing.T) {
	dir := t.TempDir()
	in := Instruments{
		Scenario: "everything on",
		Pcap:     filepath.Join(dir, "run.pcap"),
		Series:   filepath.Join(dir, "series.jsonl"),
		Audit:    filepath.Join(dir, "run.audit.json"),
	}
	captureFailover(in, func(r *faultRun) {
		sum := r.sum
		if sum.Audit == nil || !sum.Audit.Clean {
			t.Fatalf("audit = %+v, want clean", sum.Audit)
		}
		if fo := sum.Failover; !fo.Complete || fo.CrashAt != 1300*time.Millisecond {
			t.Errorf("fail-over report %+v, want complete with the crash at 1.3s", fo)
		}

		if n := requireWellFormedPcap(t, in.Pcap); uint64(n) != sum.PcapRecords || sum.PcapInner == 0 {
			t.Errorf("pcap holds %d records, Summary says %d (%d inner)", n, sum.PcapRecords, sum.PcapInner)
		}
		if f, err := capture.ReadFile(in.Pcap); err != nil {
			t.Error(err)
		} else if tls := scope.Timelines(f); len(tls) != 1 || len(tls[0].Segments) == 0 {
			t.Errorf("%d FT timelines read off the pcap, want one with segments", len(tls))
		}
		run, err := scope.LoadRunFile(in.Series)
		if err != nil {
			t.Fatal(err)
		}
		if run.Meta.Failover == nil || !run.Meta.Failover.Complete || len(run.Names()) != sum.Series || run.Meta.Ticks != sum.Ticks {
			t.Errorf("series meta %+v with %d series, Summary says %d series, %d ticks",
				run.Meta, len(run.Names()), sum.Series, sum.Ticks)
		}
		// One rule for what series contain: health verdicts because replicas
		// are watched.
		for _, name := range []string{"health.s0", "health.s1"} {
			if run.Get(name) == nil {
				t.Errorf("series export lacks %s", name)
			}
		}
		if a, err := scope.LoadAuditFile(in.Audit); err != nil || !a.Clean || a.Scenario != in.Scenario {
			t.Errorf("audit file: %v", err)
		}
	}).play(t)

	// The monitor is on in both runs: the golden capture hashes, recorded
	// without one, pin that it changes no byte either.
	alone := Instruments{Pcap: filepath.Join(dir, "alone.pcap")}
	captureFailover(alone, nil).play(t)
	if !bytes.Equal(mustRead(t, in.Pcap), mustRead(t, alone.Pcap)) {
		t.Error("the pcap of the everything-on run differs from the pcap-only run's")
	}
}

// requireWellFormedPcap reads a capture back with the in-repo reader and
// checks what every pcap of the fabric must be: LINKTYPE_RAW, timestamps
// that never decrease, an IPv4 header on every record, and an IPv4 packet
// inside every first-fragment IP-in-IP record, of which there is at least
// one (the redirector's tunnel copies). It returns the record count.
func requireWellFormedPcap(t *testing.T, path string) int {
	t.Helper()
	f, err := capture.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.LinkType != capture.LinkTypeRaw {
		t.Fatalf("%s: linktype %d, want %d (LINKTYPE_RAW)", path, f.LinkType, capture.LinkTypeRaw)
	}
	ipip := 0
	last := time.Duration(-1)
	for i, r := range f.Records {
		if r.Ts < last {
			t.Fatalf("%s: record %d: timestamp %v before predecessor %v", path, i, r.Ts, last)
		}
		last = r.Ts
		if len(r.Data) < ipv4.HeaderLen || r.Data[0]>>4 != 4 {
			t.Fatalf("%s: record %d: not an IPv4 packet", path, i)
		}
		if fragOffset := (int(r.Data[6])<<8 | int(r.Data[7])) & 0x1fff; fragOffset != 0 || r.Data[9] != ipv4.ProtoIPIP {
			continue // a fragment continuation has no inner header
		}
		ipip++
		if inner := r.Data[ipv4.HeaderLen:]; len(inner) < ipv4.HeaderLen || inner[0]>>4 != 4 {
			t.Fatalf("%s: record %d: IP-in-IP payload is not IPv4", path, i)
		}
	}
	if ipip == 0 {
		t.Fatalf("%s: %d records, none of them a tunnel copy", path, len(f.Records))
	}
	return len(f.Records)
}

// TestFinishSurfacesPcapError: a capture whose destination stops accepting
// writes mid-run must not end as a silently truncated file.
func TestFinishSurfacesPcapError(t *testing.T) {
	payload := make([]byte, 16*1024)
	faultCase{seed: 3, replicas: 2, in: Instruments{Pcap: filepath.Join(t.TempDir(), "run.pcap")}, send: payload,
		setup: func(r *faultRun) { r.sess.pcapFile.Close() }, // the disk "fills": every later write fails
		steps: []step{readAll(len(payload), time.Minute)}, verdict: verdict{echo: payload, finishErr: "pcap"}}.play(t)
}

// TestInstrumentUnwritablePcap: /dev/full can be created and fails every
// write with ENOSPC. Instrument must never return an error with observers
// left attached (a monitor subscribed, a Net that answers "called twice" to
// the retry): with the header buffered it succeeds, and Finish reports the
// pcap error when the buffer cannot be flushed.
func TestInstrumentUnwritablePcap(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	net, _, _, _, _ := ftTopology(Config{Seed: 1}, 2, LinkConfig{})
	sess, err := net.Instrument(Instruments{Invariants: true, Pcap: "/dev/full"})
	if err != nil {
		requireNothingAttached(t, net)
		if _, err := net.Instrument(Instruments{}); err != nil {
			t.Fatalf("retry after a failed Instrument: %v", err)
		}
		return
	}
	if _, err := sess.Finish(); err == nil || !strings.Contains(err.Error(), "pcap") {
		t.Fatalf("Finish = %v, want the pcap write error", err)
	}
}

func TestInstrumentsSuffixed(t *testing.T) {
	for _, tc := range []struct{ path, want string }{
		{"a.pcap", "a-t3.pcap"},
		{"out/x.audit.json", "out/x-t3.audit.json"},
		{"out.d/run", "out.d/run-t3"},
		{".hidden", ".hidden-t3"},
		{"", ""},
	} {
		got := Instruments{Pcap: tc.path, Series: tc.path, Audit: tc.path}.Suffixed("-t3")
		for _, p := range []string{got.Pcap, got.Series, got.Audit} {
			if p != tc.want {
				t.Errorf("Suffixed(%q) = %q, want %q", tc.path, p, tc.want)
			}
		}
	}
}
