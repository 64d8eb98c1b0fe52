package hydranet_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/tcp"
)

var updateChurn = flag.String("update-golden-churn", "", "rewrite testdata/golden_churn.json from this tree, recording the given commit label")

const goldenChurnPath = "testdata/golden_churn.json"

// churnFingerprint is everything the connection-rate path may not change:
// how many events fired, when every connection closed on every endpoint
// (replica-side instants are TIME-WAIT expiries), how each ended, and each
// host's connection counters.
type churnFingerprint struct {
	Events uint64 `json:"events"`
	// ClientClosed[pod][i] is when the pod's i-th connection reported
	// OnClosed at the client, in virtual nanoseconds; ClientErr its error.
	ClientClosed [][]int64  `json:"client_closed_ns"`
	ClientErr    [][]string `json:"client_err"`
	// ReplicaClosed[host] lists the host's OnClosed instants in firing order.
	ReplicaClosed map[string][]int64 `json:"replica_closed_ns"`
	// TimeWaitRestarts counts FINs that reached a replica connection already
	// in TIME-WAIT: each one re-arms a 2MSL wait.
	TimeWaitRestarts int                      `json:"time_wait_restarts"`
	ConnTotals       map[string]untaggedConns `json:"conn_totals"`
	LiveConns        int                      `json:"live_conns_at_end"`
}

// untaggedConns is tcp.ConnStats without its JSON tags: the golden file keys
// each host's counters by Go field name.
type untaggedConns struct {
	SegsSent, SegsSuppressed, SegsReceived, BytesSent, BytesReceived      uint64
	Retransmits, RTOEvents, FastRetransmits, DupAcksSeen, PeerRetransmits uint64
}

type goldenChurn struct {
	RecordedAt string                      `json:"recorded_at"`
	Variants   map[string]churnFingerprint `json:"variants"`
}

const (
	churnTestPods  = 2
	churnTestConns = 60
	churnReqLen    = 64

	churnDelayedAck = 200 * time.Millisecond
)

// runChurn pushes churnTestConns short request/response connections, one at a
// time per pod, through two FT pods (client, redirector, primary, backup; the
// redirectors joined by a backbone link) — the shape of bench's churn
// workload. The server closes first, so every replica-side connection ends in
// TIME-WAIT. crash kills pod 0's backup a third of the way through.
func runChurn(t *testing.T, loss float64, crash bool) churnFingerprint {
	t.Helper()
	net := hydranet.New(hydranet.Config{Seed: 5, TCP: hydranet.TCPConfig{
		SendBufSize: 16384, RecvBufSize: 16384, DelayedAckTimeout: churnDelayedAck,
	}})
	lan := hydranet.LinkConfig{Rate: 10_000_000, Delay: 100 * time.Microsecond, Loss: loss}
	blob := make([]byte, 64<<10)
	for i := range blob {
		blob[i] = byte(i*7 + i>>8)
	}
	fp := churnFingerprint{
		ClientClosed:  make([][]int64, churnTestPods),
		ClientErr:     make([][]string, churnTestPods),
		ReplicaClosed: map[string][]int64{},
		ConnTotals:    map[string]untaggedConns{},
	}
	type pod struct {
		client   *hydranet.Host
		svc      hydranet.ServiceID
		replicas []*hydranet.Host
	}
	var pods []*pod
	var rds []*hydranet.Redirector
	var hosts []*hydranet.Host
	for i := 0; i < churnTestPods; i++ {
		p := &pod{
			client: net.AddHost(fmt.Sprintf("c%d", i), hydranet.HostConfig{}),
			svc:    hydranet.ServiceID{Addr: hydranet.MustAddr(fmt.Sprintf("192.20.225.%d", 20+i)), Port: 80},
		}
		rd := net.AddRedirector(fmt.Sprintf("rd%d", i), hydranet.HostConfig{})
		net.Link(p.client, rd.Host, lan)
		for _, name := range []string{"a", "b"} {
			h := net.AddHost(fmt.Sprintf("s%d%s", i, name), hydranet.HostConfig{})
			net.Link(h, rd.Host, lan)
			p.replicas = append(p.replicas, h)
		}
		pods, rds = append(pods, p), append(rds, rd)
		hosts = append(append(hosts, p.client), p.replicas...)
	}
	net.Link(rds[0].Host, rds[1].Host, hydranet.LinkConfig{Rate: 100_000_000, Delay: 2 * time.Millisecond})
	net.AutoRoute()

	// serve is the service on replica h: read a fixed-length request naming a
	// slice of blob, send that slice, close.
	serve := func(h *hydranet.Host, c *hydranet.Conn) {
		var req []byte
		buf := make([]byte, churnReqLen)
		c.OnClosed(func(error) {
			fp.ReplicaClosed[h.Name()] = append(fp.ReplicaClosed[h.Name()], int64(net.Now()))
		})
		c.OnReadable(func() {
			for len(req) < churnReqLen {
				n := c.Read(buf[:churnReqLen-len(req)])
				if n == 0 {
					return
				}
				req = append(req, buf[:n]...)
				if len(req) == churnReqLen {
					size, off := int(binary.BigEndian.Uint32(req)), int(binary.BigEndian.Uint32(req[4:]))
					app.Source(c, blob[off:off+size], true)
				}
			}
		})
	}
	for i, p := range pods {
		for _, h := range p.replicas {
			h.TCP().SetTrace(func(dir string, local, remote hydranet.Endpoint, seg *tcp.Segment) {
				if dir == "in" && seg.Flags.Has(tcp.FlagFIN) {
					if c := h.TCP().FindConn(local, remote); c != nil && c.State() == tcp.StateTimeWait {
						fp.TimeWaitRestarts++
					}
				}
			})
		}
		if _, err := net.DeployFT(p.svc, rds[i], p.replicas, hydranet.FTOptions{}, func(c *hydranet.Conn) {
			// Every replica accepts under the same endpoint pair; the one
			// whose table holds c is the one it was accepted on.
			for _, h := range p.replicas {
				if h.TCP().FindConn(c.Local(), c.Remote()) == c {
					serve(h, c)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	net.Settle()

	running := 0
	var start func(pi, i int)
	start = func(pi, i int) {
		p := pods[pi]
		if i == churnTestConns {
			running--
			return
		}
		// Heavy-tailed sizes: mostly a few hundred bytes, every eighth
		// connection several buffers' worth.
		size := 200 + (i*37)%700
		if i%8 == 3 {
			size = 20000 + i*150
		}
		off := (i * 911) % (len(blob) - 32<<10)
		conn, err := p.client.Dial(p.svc)
		if err != nil {
			t.Fatalf("pod %d connection %d: %v", pi, i, err)
		}
		req := make([]byte, churnReqLen)
		binary.BigEndian.PutUint32(req, uint32(size))
		binary.BigEndian.PutUint32(req[4:], uint32(off))
		got, buf := 0, make([]byte, 4096)
		conn.OnReadable(func() {
			for {
				n := conn.Read(buf)
				if n == 0 {
					break
				}
				got += n
			}
			if conn.PeerClosed() {
				conn.Close()
			}
		})
		conn.OnClosed(func(err error) {
			outcome := fmt.Sprintf("%d/%d", got, size)
			if err != nil {
				outcome += " " + err.Error()
			}
			fp.ClientClosed[pi] = append(fp.ClientClosed[pi], int64(net.Now()))
			fp.ClientErr[pi] = append(fp.ClientErr[pi], outcome)
			start(pi, i+1)
		})
		app.Source(conn, req, false)
	}
	for pi := range pods {
		running++
		start(pi, 0)
	}
	crashed := !crash
	for ceiling := net.Now() + time.Hour; running > 0 && net.Now() < ceiling; {
		net.RunFor(50 * time.Millisecond)
		if !crashed && len(fp.ClientClosed[0]) >= churnTestConns/3 {
			pods[0].replicas[1].Crash()
			crashed = true
		}
	}
	if running > 0 {
		t.Fatalf("%d pods still running after a virtual hour", running)
	}
	net.RunFor(90 * time.Second) // every TIME-WAIT, restarted or not, expires
	requireReassemblyGuardsIdle(t, append(hosts, rds[0].Host, rds[1].Host)...)
	fp.Events = net.EventsFired()
	for _, h := range hosts {
		fp.ConnTotals[h.Name()] = untaggedConns(h.TCP().ConnTotals())
		fp.LiveConns += h.TCP().NumConns()
	}
	return fp
}

// TestChurnGolden: short connections through FT pods — lossless, at 1 % loss
// (retransmitted FINs restart TIME-WAIT) and with a replica crash mid-run (its
// TIME-WAIT population is reset at once) — fire exactly the events, close at
// exactly the instants and count exactly the segments that the commit named in
// testdata/golden_churn.json did. (Before core walked a port's connections in
// client order on reconfiguration, the crash variant had two outcomes, by map
// order.) A change to the connection-rate path must leave the file untouched.
//
// The file records what happened; what is right is asserted beside it: without
// loss no replica retransmits, and each counts the bytes it served as sent
// once. (The file used to pin s1a at BytesSent 0, Retransmits 191 on the
// lossless run: passive open left sndMax at the zero Seq; and, in the crash
// variant, a connection ending "351/351 tcp: retransmission limit exceeded"
// 423 s late: a FIN retransmitted into a shut deposit gate did not count as a
// peer retransmission.)
func TestChurnGolden(t *testing.T) {
	variants := []struct {
		name  string
		loss  float64
		crash bool
	}{
		{"lossless", 0, false},
		{"loss_1pct", 0.01, false},
		{"crash", 0, true},
	}
	got := goldenChurn{Variants: map[string]churnFingerprint{}}
	for _, v := range variants {
		got.Variants[v.name] = runChurn(t, v.loss, v.crash)
	}
	lossless := got.Variants["lossless"].ConnTotals
	for pod := 0; pod < churnTestPods; pod++ {
		served := lossless[fmt.Sprintf("c%d", pod)].BytesReceived
		for _, replica := range []string{"a", "b"} {
			name := fmt.Sprintf("s%d%s", pod, replica)
			if st := lossless[name]; st.Retransmits != 0 || st.BytesSent != served {
				t.Errorf("lossless: %s counts %d retransmits and %d bytes sent, want 0 and the %d bytes served",
					name, st.Retransmits, st.BytesSent, served)
			}
		}
	}
	// Nor may the file pin a bug, whatever it is regenerated from: every
	// connection delivers its whole response without an error, a lossless or
	// crashed run leaves no connection behind, and without loss no response
	// waits out a delayed-ACK timer (a short tail leaves with its FIN).
	for _, v := range variants {
		fp := got.Variants[v.name]
		for pod, outcomes := range fp.ClientErr {
			for i, outcome := range outcomes {
				var read, size int
				if n, _ := fmt.Sscanf(outcome, "%d/%d", &read, &size); n != 2 || read != size || strings.Contains(outcome, " ") {
					t.Errorf("%s: pod %d connection %d ended %q, want the whole response and no error", v.name, pod, i, outcome)
				}
			}
		}
		if v.loss == 0 && fp.LiveConns != 0 {
			t.Errorf("%s: %d connections still live after the drain", v.name, fp.LiveConns)
		}
	}
	for pod, closed := range got.Variants["lossless"].ClientClosed {
		for i := 1; i < len(closed); i++ {
			if gap := time.Duration(closed[i] - closed[i-1]); gap >= churnDelayedAck {
				t.Errorf("lossless: pod %d connection %d closed %v after the one before it: a timer stood in for a packet", pod, i, gap)
			}
		}
	}
	if *updateChurn != "" {
		// One variant per line keeps the file, mostly close instants, short.
		label, _ := json.Marshal(*updateChurn)
		var lines []string
		for _, v := range variants {
			b, err := json.Marshal(got.Variants[v.name])
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("  %q: %s", v.name, b))
		}
		out := fmt.Sprintf("{\n \"recorded_at\": %s,\n \"variants\": {\n%s", label, strings.Join(lines, ",\n"))
		if err := os.WriteFile(goldenChurnPath, []byte(out+"\n }\n}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenChurnPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenChurn
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		g, w := got.Variants[v.name], want.Variants[v.name]
		if g.Events != w.Events {
			t.Errorf("%s: %d events fired, golden %d", v.name, g.Events, w.Events)
		}
		if g.TimeWaitRestarts != w.TimeWaitRestarts || g.LiveConns != w.LiveConns {
			t.Errorf("%s: %d TIME-WAIT restarts and %d live connections at the end, golden %d and %d",
				v.name, g.TimeWaitRestarts, g.LiveConns, w.TimeWaitRestarts, w.LiveConns)
		}
		if !reflect.DeepEqual(g.ClientClosed, w.ClientClosed) || !reflect.DeepEqual(g.ClientErr, w.ClientErr) {
			t.Errorf("%s: client-side close instants or outcomes differ from the golden file", v.name)
		}
		if !reflect.DeepEqual(g.ReplicaClosed, w.ReplicaClosed) {
			t.Errorf("%s: replica-side close instants (TIME-WAIT expiries) differ from the golden file", v.name)
		}
		if !reflect.DeepEqual(g.ConnTotals, w.ConnTotals) {
			t.Errorf("%s: ConnTotals differ:\n  got    %+v\n  golden %+v", v.name, g.ConnTotals, w.ConnTotals)
		}
	}
	// The file must pin what it claims to: restarts under loss, none without.
	if w := want.Variants["loss_1pct"]; w.TimeWaitRestarts == 0 {
		t.Error("golden loss_1pct variant records no TIME-WAIT restart — it no longer exercises lane cancellation")
	}
	if w := want.Variants["lossless"]; w.TimeWaitRestarts != 0 {
		t.Errorf("golden lossless variant records %d TIME-WAIT restarts, want none", w.TimeWaitRestarts)
	}
}
