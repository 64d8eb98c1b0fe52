package hydranet

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/ipv4"
	"hydranet/internal/tcp"
)

// scenarioOpts tweaks runScenario without changing the simulated workload.
type scenarioOpts struct {
	poison   bool      // enable frame-pool poisoning
	traceOut io.Writer // tcpdump-style segment trace destination (nil = none)
	// retain seeds the bug frame poisoning exists to catch: hooks that keep
	// the *tcp.Segment and *ipv4.Packet they were handed past the call, and
	// read them after the run. What they read is appended to the fingerprint.
	retain bool
}

// runScenario executes a fixed FT scenario (lossy links, mid-stream primary
// crash) and returns a fingerprint of everything observable, including the
// full snapshot JSON.
func runScenario(seed int64, opts scenarioOpts) string {
	net := New(Config{Seed: seed})
	net.PoisonFrames(opts.poison)
	client := net.AddHost("client", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	var replicas []*Host
	link := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond, Loss: 0.02}
	net.Link(client, rd.Host, link)
	for i := 0; i < 3; i++ {
		h := net.AddHost("s"+string(rune('0'+i)), HostConfig{})
		replicas = append(replicas, h)
		net.Link(h, rd.Host, link)
	}
	net.AutoRoute()
	if opts.traceOut != nil {
		for _, h := range append([]*Host{client}, replicas...) {
			name := h.Name()
			h.TCP().SetTrace(func(dir string, local, remote Endpoint, seg *tcp.Segment) {
				fmt.Fprintf(opts.traceOut, "%v %s %s %s %s %s\n", net.Now(), name, dir, local, remote, seg)
			})
		}
	}
	var keptSeg *tcp.Segment
	var keptPkt *ipv4.Packet
	if opts.retain {
		client.TCP().SetTrace(func(dir string, _, _ Endpoint, seg *tcp.Segment) {
			if dir == "in" {
				keptSeg = seg
			}
		})
		net.addEncapTap(func(inner *ipv4.Packet, _ Addr) { keptPkt = inner })
	}
	svc, err := net.DeployFT(testSvc, rd, replicas, FTOptions{},
		func(c *Conn) { app.Echo(c) })
	if err != nil {
		panic(err)
	}
	net.Settle()
	conn, err := client.Dial(testSvc)
	if err != nil {
		panic(err)
	}
	var echoed []byte
	app.Collect(conn, &echoed)
	payload := make([]byte, 120_000)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	app.Source(conn, payload, false)
	net.RunFor(400 * time.Millisecond)
	svc.CrashPrimary()
	net.RunFor(2 * time.Minute)

	fp := fmt.Sprintf("echoed=%d chain=%v events=%d conn=%+v rd=%+v",
		len(echoed), svc.Chain(), net.Scheduler().Fired(), conn.Stats(),
		rd.Daemon().Stats())
	for _, h := range replicas {
		fp += fmt.Sprintf(" %s=%+v", h.Name(), h.FTManager().Stats())
	}
	snap, err := net.Snapshot().JSON()
	if err != nil {
		panic(err)
	}
	fp += "\n" + string(snap)
	if opts.retain {
		fp += fmt.Sprintf("\nretained: seg %v; inner %s→%s proto %d", keptSeg, keptPkt.Src, keptPkt.Dst, keptPkt.Proto)
	}
	return fp
}

// TestWholeRunDeterminism: a complete FT scenario — loss, retransmissions,
// suspicion, probing, failover — replays identically from the same seed.
// This is the property that makes every experiment in EXPERIMENTS.md
// reproducible bit for bit.
func TestWholeRunDeterminism(t *testing.T) {
	a := runScenario(77, scenarioOpts{})
	b := runScenario(77, scenarioOpts{})
	if a != b {
		t.Fatalf("same seed diverged:\n  run1: %s\n  run2: %s", a, b)
	}
	c := runScenario(78, scenarioOpts{})
	if a == c {
		t.Fatal("different seeds produced identical fingerprints — randomness inert")
	}
}

// TestPoolingDeterminism: frame-buffer pooling is invisible. With poisoning
// enabled every released buffer is overwritten before reuse, so this test
// fails if any component reads a frame after returning it to the pool
// (recycled-buffer-observed-after-release): the poisoned bytes would change
// the fingerprint, the snapshot JSON, or the segment trace.
func TestPoolingDeterminism(t *testing.T) {
	var trClean, trPoison bytes.Buffer
	clean := runScenario(77, scenarioOpts{traceOut: &trClean})
	poisoned := runScenario(77, scenarioOpts{poison: true, traceOut: &trPoison})
	if clean != poisoned {
		t.Fatalf("pool poisoning changed observable results — a frame is read after release:\n  clean:    %.400s\n  poisoned: %.400s", clean, poisoned)
	}
	if !bytes.Equal(trClean.Bytes(), trPoison.Bytes()) {
		t.Fatal("pool poisoning changed the segment trace — a frame is read after release")
	}
	if trClean.Len() == 0 {
		t.Fatal("trace is empty — the comparison is vacuous")
	}
}

// TestScratchPoisonCatchesRetention: parsed headers live in per-stack scratch
// structs with the lifetime of the frame they were parsed from, and poison
// mode scribbles them when the handler returns. A hook that wrongly keeps the
// pointer therefore reads garbage under poison and the last frame's header
// without — so the clean/poisoned comparison TestPoolingDeterminism relies on
// fails, which is how such a bug gets caught.
func TestScratchPoisonCatchesRetention(t *testing.T) {
	split := func(fp string) (run, retained string) {
		i := strings.LastIndex(fp, "\nretained: ")
		if i < 0 {
			t.Fatal("fingerprint has no retained section")
		}
		return fp[:i], fp[i:]
	}
	cleanRun, cleanKept := split(runScenario(77, scenarioOpts{retain: true}))
	poisonRun, poisonKept := split(runScenario(77, scenarioOpts{retain: true, poison: true}))
	if cleanRun != poisonRun {
		t.Fatal("the retaining hooks only read; the run itself must not change under poison")
	}
	if cleanKept == poisonKept {
		t.Fatalf("retained scratch headers read the same with and without poison — scratch structs are not scribbled:%s", cleanKept)
	}
	scribbled := ipv4.Addr(0xDBDBDBDB).String()
	if !strings.Contains(poisonKept, "inner "+scribbled+"→"+scribbled) || !strings.Contains(poisonKept, fmt.Sprint(uint32(0xDBDBDBDB))) {
		t.Fatalf("poisoned run's retained headers are not the scribble pattern:%s", poisonKept)
	}
	if strings.Contains(cleanKept, scribbled) {
		t.Fatalf("clean run shows the scribble pattern:%s", cleanKept)
	}
}
