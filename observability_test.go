package hydranet

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"hydranet/internal/app"
)

// streamClient dials svc, streams payload through the echo service, and
// counts echoed bytes, publishing KindClientDeliver on every read so the
// failover probe can see client-visible progress.
func streamClient(t *testing.T, net *Net, client *Host, payload []byte) *int {
	t.Helper()
	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	received := new(int)
	bus := net.Bus()
	buf := make([]byte, 8192)
	conn.OnReadable(func() {
		for {
			n := conn.Read(buf)
			if n == 0 {
				break
			}
			*received += n
			if bus.Enabled(KindClientDeliver) {
				bus.Publish(Event{Kind: KindClientDeliver, Node: "client", Size: n})
			}
		}
	})
	app.Source(conn, payload, false)
	return received
}

func TestSnapshotAndFailoverTimeline(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 7, 3)
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 3}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	probe := net.newFailoverProbe()
	net.Settle()

	// About a second of echo through three replicas: the 400 ms crash lands
	// mid-transfer.
	payload := make([]byte, 1<<20)
	received := streamClient(t, net, client, payload)

	net.RunFor(400 * time.Millisecond)
	before := net.Snapshot()
	svc.CrashPrimary()
	for *received < len(payload) && net.Now() < 2*time.Minute {
		net.RunFor(time.Second)
	}
	if *received != len(payload) {
		t.Fatalf("client received %d of %d bytes", *received, len(payload))
	}

	report := probe.Report()
	if !report.Complete {
		t.Fatalf("failover report incomplete: %+v", report)
	}
	if report.Detection <= 0 || report.Reconfiguration <= 0 {
		t.Fatalf("non-positive phases: %+v", report)
	}
	if report.ClientStall < report.Detection {
		t.Fatalf("client stall %v shorter than detection %v",
			report.ClientStall, report.Detection)
	}

	snap := net.Snapshot()
	snap.Failover = &report

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
	if got, want := snap.Redirectors[0].Table.MulticastCopies, rd.Table().Stats().MulticastCopies; got != want {
		t.Errorf("snapshot copies %d != direct stats %d", got, want)
	}

	// Interval diff covers only post-crash activity.
	d := snap.Diff(before)
	if d.Time <= 0 {
		t.Errorf("diff time = %v", d.Time)
	}
	dc := d.Hosts[byName["client"]]
	if dc.Conns.BytesReceived == 0 || dc.Conns.BytesReceived >= uint64(len(payload)) {
		t.Errorf("diffed client bytes = %d, want strictly between 0 and total", dc.Conns.BytesReceived)
	}

	// And the whole thing serializes, failover timeline included.
	out, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(out, &parsed); err != nil {
		t.Fatal(err)
	}
	fo, ok := parsed["failover"].(map[string]any)
	if !ok || fo["complete"] != true {
		t.Fatalf("failover section missing or incomplete in JSON: %v", parsed["failover"])
	}
}

// TestRedirectorStatsUnderLossyBackupLinks drops multicast copies on the
// backup links and checks the redirector's accounting stays consistent: one
// tunnel copy per chain member per match, no tunnel errors, and the fabric
// (not the redirector) accounts the lost copies.
func TestRedirectorStatsUnderLossyBackupLinks(t *testing.T) {
	net := New(Config{Seed: 11})
	client := net.AddHost("client", HostConfig{})
	rd := net.AddRedirector("rd", HostConfig{})
	var replicas []*Host
	for _, name := range []string{"s0", "s1", "s2"} {
		replicas = append(replicas, net.AddHost(name, HostConfig{}))
	}
	clean := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	lossy := LinkConfig{Rate: 10_000_000, Delay: time.Millisecond, Loss: 0.03}
	net.Link(client, rd.Host, clean)
	net.Link(replicas[0], rd.Host, clean)
	net.Link(replicas[1], rd.Host, lossy)
	net.Link(replicas[2], rd.Host, lossy)
	net.AutoRoute()

	// A high threshold keeps the detector quiet, so the chain keeps all
	// three members and the copies-per-match ratio stays fixed.
	if _, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 50}}, echoAccept()); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	conn, err := client.Dial(testSvc)
	if err != nil {
		t.Fatal(err)
	}
	echoed := collect(conn)
	app.Source(conn, payload, false)
	for len(*echoed) < len(payload) && net.Now() < 2*time.Minute {
		net.RunFor(time.Second)
	}
	if !bytes.Equal(*echoed, payload) {
		t.Fatalf("stream corrupted under loss: got %d bytes", len(*echoed))
	}

	rs := rd.Table().Stats()
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

	snap := net.Snapshot()
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
}
