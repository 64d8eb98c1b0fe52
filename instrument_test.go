package hydranet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/icmp"
	"hydranet/internal/obs"
)

// star is internal/testbed's Figure-3 star, which the tests of this package
// cannot import: a client and n replicas s0, s1, …, each on its own
// 10 Mbit/s, 1 ms link to the redirector.
func star(seed int64, n int) (*Net, *Redirector, []*Host) {
	net := New(Config{Seed: seed})
	client := net.AddHost("client", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	link := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Link(client, rd.Host, link)
	var replicas []*Host
	for i := range n {
		replicas = append(replicas, net.AddHost(fmt.Sprintf("s%d", i), HostConfig{}))
		net.Link(replicas[i], rd.Host, link)
	}
	net.AutoRoute()
	return net, rd, replicas
}

// requireNothingAttached fails unless the net is as bare as New left it: no
// bus subscriber on any kind, no frame or encap tap and no scheduler event.
func requireNothingAttached(t *testing.T, net *Net) {
	t.Helper()
	for _, k := range obs.Kinds() {
		if net.bus.Enabled(k) {
			t.Errorf("bus has a subscriber for %s", k)
		}
	}
	if s := net.session; s != nil && s.capt != nil {
		t.Error("a capture, the only frame and encap tap, is attached")
	}
	if p := net.sched.Pending(); p != 0 {
		t.Errorf("%d scheduler events pending", p)
	}
}

// TestInstrumentZeroValueAttachesNothing: Instruments{} is a run without
// observers — what lets testbed and bench call Instrument unconditionally
// and still match an uninstrumented run to the last fired event.
func TestInstrumentZeroValueAttachesNothing(t *testing.T) {
	net, _, _ := star(1, 2)
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
		net, rd, replicas := star(1, 2)
		if _, err := net.DeployFT(ServiceID{Addr: MustAddr("192.20.225.20"), Port: 80}, rd, replicas, FTOptions{}, app.Echo); err != nil {
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
		net, _, _ := star(1, 2)
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

// TestInstrumentUnwritablePcap: /dev/full can be created and fails every
// write with ENOSPC. Instrument must never return an error with observers
// left attached (a monitor subscribed, a Net that answers "called twice" to
// the retry): with the header buffered it succeeds, and Finish reports the
// pcap error when the buffer cannot be flushed.
func TestInstrumentUnwritablePcap(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	net, _, _ := star(1, 2)
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

// TestSamplerCadenceAndStop: the first tick fires one cadence after the
// sampler starts and each later one a cadence after the last; Stop disarms it.
func TestSamplerCadenceAndStop(t *testing.T) {
	net := New(Config{Seed: 1})
	a := net.AddHost("a", HostConfig{})
	tel := net.startSampler(10*time.Millisecond, nil)
	net.RunFor(35 * time.Millisecond)
	alive := tel.set.Get("host." + a.Name() + ".alive")
	if tel.ticks != 3 || alive.Len() != 3 || !tel.timer.Armed() {
		t.Fatalf("ticks=%d points=%d armed=%v, want 3 ticks (10/20/30ms), still armed", tel.ticks, alive.Len(), tel.timer.Armed())
	}
	for i, want := range []time.Duration{10, 20, 30} {
		if at := alive.At(i).T; at != want*time.Millisecond {
			t.Fatalf("tick %d at %v, want %vms", i, at, want)
		}
	}
	tel.Stop()
	net.RunFor(100 * time.Millisecond)
	if tel.ticks != 3 || tel.timer.Armed() {
		t.Fatalf("sampler ticked after Stop: ticks=%d armed=%v", tel.ticks, tel.timer.Armed())
	}
}

// TestSamplerZeroCostWhenStopped pins the facade's promise: telemetry is
// zero-cost unless a sampler is actively running. A net that had a sampler
// attached, ticking, and then stopped must perform a ping round trip with
// exactly as many heap allocations as a net that never saw one.
func TestSamplerZeroCostWhenStopped(t *testing.T) {
	pingAllocs := func(attach bool) float64 {
		net := New(Config{Seed: 1})
		a := net.AddHost("a", HostConfig{})
		b := net.AddHost("b", HostConfig{})
		net.Link(a, b, LinkConfig{Rate: 100_000_000, Delay: 100 * time.Microsecond})
		net.AutoRoute()
		if attach {
			tel := net.startSampler(time.Millisecond, nil)
			net.RunFor(5 * time.Millisecond) // let it tick for real
			tel.Stop()
		}
		done := func(icmp.EchoResult) {}
		a.Ping(b.Addr(), time.Second, done) // warm stacks and pools
		net.RunFor(50 * time.Millisecond)
		return testing.AllocsPerRun(100, func() {
			a.Ping(b.Addr(), time.Second, done)
			net.RunFor(10 * time.Millisecond)
		})
	}
	base := pingAllocs(false)
	stopped := pingAllocs(true)
	if stopped != base {
		t.Fatalf("round trip with stopped sampler allocates %v/op, baseline %v/op — idle telemetry must add 0",
			stopped, base)
	}
}
