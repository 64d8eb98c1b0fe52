package hydranet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hydranet/internal/app"
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
	if sum != (Summary{}) {
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
			Pcap:  filepath.Join(dir, "x.pcap"),
			Audit: filepath.Join(dir, "x.audit.json"),
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
		got := Instruments{Pcap: tc.path, Audit: tc.path}.Suffixed("-t3")
		for _, p := range []string{got.Pcap, got.Audit} {
			if p != tc.want {
				t.Errorf("Suffixed(%q) = %q, want %q", tc.path, p, tc.want)
			}
		}
	}
}
