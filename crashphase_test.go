package hydranet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hydranet/internal/app"
)

// TestCrashAtEveryPhase kills the primary at increasingly late points of a
// connection's life — before the SYN, between SYN and data, during the bulk
// transfer, just before the close, and in it — and requires the same
// client-side outcome every time: the full echo arrives and the connection
// closes cleanly. In the close phase the last echoed byte arrives with the
// server's FIN, so all that is left in flight is the client's ACK of it: the
// survivor finishes alone, nobody retransmits, and nobody can report the
// crash until the next connection's SYN goes unanswered.
func TestCrashAtEveryPhase(t *testing.T) {
	payload := make([]byte, 120_000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	phases := []struct {
		name    string
		crashAt time.Duration // after the dial (for pre-data phases)
		atBytes int           // crash once this many bytes are echoed
	}{
		{"before-syn", 0, -1},
		{"during-handshake", 2 * time.Millisecond, -1},
		{"first-data", 12 * time.Millisecond, -1},
		{"mid-transfer", 0, len(payload) / 4},
		{"late-transfer", 0, len(payload) * 3 / 4},
		{"close", 0, len(payload)},
	}
	for i, phase := range phases {
		phase := phase
		t.Run(phase.name, func(t *testing.T) {
			net, client, rd, replicas := ftTopology(t, int64(100+i), 2)
			svc, err := net.DeployFT(testSvc, rd, replicas,
				FTOptions{Detector: DetectorParams{RetransmitThreshold: 2}}, echoAccept())
			if err != nil {
				t.Fatal(err)
			}
			net.Settle()

			conn, err := client.Dial(testSvc)
			if err != nil {
				t.Fatal(err)
			}
			var echoedData []byte
			echoed := &echoedData
			crashed := false
			crash := func() {
				if !crashed {
					crashed = true
					replicas[0].Crash() // always the original primary
				}
			}
			buf := make([]byte, 4096)
			conn.OnReadable(func() {
				for {
					n := conn.Read(buf)
					if n == 0 {
						break
					}
					echoedData = append(echoedData, buf[:n]...)
				}
				if phase.atBytes >= 0 && len(echoedData) >= phase.atBytes {
					crash()
				}
			})
			var closedErr error
			closed := false
			conn.OnClosed(func(err error) { closed, closedErr = true, err })
			app.Source(conn, payload, true) // write everything, then close

			if phase.atBytes < 0 {
				net.RunFor(phase.crashAt)
				crash()
			}
			net.RunFor(5 * time.Minute)
			if !crashed {
				t.Fatal("crash trigger never fired")
			}

			if !bytes.Equal(*echoed, payload) {
				t.Fatalf("echo %d of %d bytes after %s crash",
					len(*echoed), len(payload), phase.name)
			}
			if !closed || closedErr != nil {
				t.Fatalf("close after %s crash: done=%v err=%v",
					phase.name, closed, closedErr)
			}
			if phase.name == "close" {
				next, err := client.Dial(testSvc)
				if err != nil {
					t.Fatal(err)
				}
				again := collect(next)
				app.Source(next, payload[:3000], true)
				net.RunFor(5 * time.Minute)
				if !bytes.Equal(*again, payload[:3000]) {
					t.Fatalf("next connection echoed %d of 3000 bytes", len(*again))
				}
			}
			if got := svc.Chain(); len(got) != 1 || got[0] != replicas[1].Addr() {
				t.Fatalf("chain = %v after %s crash", got, phase.name)
			}
		})
	}
}

// TestCrashDuringCloseHandshake: the primary dies after the client's FIN is
// acknowledged but (possibly) before the server side finishes closing. The
// client must still terminate cleanly rather than hang in FIN-WAIT.
func TestCrashDuringCloseHandshake(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 110, 2)
	_, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 2}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	echoed := collect(conn)
	var closedErr error
	closed := false
	conn.OnClosed(func(err error) { closed, closedErr = true, err })
	app.Source(conn, []byte("short"), true)
	// Let the data and FIN go out, then kill the primary mid-teardown.
	net.RunFor(8 * time.Millisecond)
	replicas[0].Crash()
	net.RunFor(5 * time.Minute)
	if string(*echoed) != "short" {
		t.Fatalf("echo = %q", *echoed)
	}
	if !closed {
		t.Fatal("client hung in teardown after primary crash")
	}
	_ = closedErr // a clean close is ideal but a late RST-free timeout is tolerated
}

// TestAllReplicasDead: when the whole replica set fails, HydraNet-FT's
// guarantee is exhausted ("reliable communication as long as there is a
// path between the client and at least ONE operational server"). The
// client's connection must die a normal TCP death, the redirector table
// must empty, and later dials must fail rather than hang forever.
func TestAllReplicasDead(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 112, 2)
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 2}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	var closedErr error
	conn.OnClosed(func(err error) { closedErr = err })
	app.Source(conn, make([]byte, 200_000), false)
	net.RunFor(100 * time.Millisecond)
	for _, h := range replicas {
		h.Crash()
	}
	net.RunFor(30 * time.Minute) // enough for the client's full retry budget
	if closedErr == nil {
		t.Fatalf("client connection still alive with zero operational servers (state %v)", conn.State())
	}
	// Faithful limitation: failure reports come from the replicas
	// themselves ("failure detectors on the hosts inform the redirectors"),
	// so with the whole set dead nobody reports and the table goes stale.
	if got := len(svc.Chain()); got != 2 {
		t.Fatalf("chain = %d members; with no survivors no one can report, so the stale chain persists", got)
	}
	// A fresh dial cannot succeed; it must fail, not hang.
	conn2, _ := client.Dial(testSvc)
	var err2 error
	closed2 := false
	conn2.OnClosed(func(e error) { closed2, err2 = true, e })
	net.RunFor(30 * time.Minute)
	if !closed2 || err2 == nil {
		t.Fatalf("dial against a dead service: closed=%v err=%v", closed2, err2)
	}
}

// TestSequentialCrashes: with three replicas, kill the primary, then kill
// its successor; the last survivor carries the connection home.
func TestSequentialCrashes(t *testing.T) {
	net, client, rd, replicas := ftTopology(t, 111, 3)
	svc, err := net.DeployFT(testSvc, rd, replicas,
		FTOptions{Detector: DetectorParams{RetransmitThreshold: 2}}, echoAccept())
	if err != nil {
		t.Fatal(err)
	}
	net.Settle()
	conn, _ := client.Dial(testSvc)
	payload := make([]byte, 1_000_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var echoedData []byte
	echoed := &echoedData
	buf := make([]byte, 4096)
	stage := 0
	conn.OnReadable(func() {
		for {
			n := conn.Read(buf)
			if n == 0 {
				break
			}
			echoedData = append(echoedData, buf[:n]...)
		}
		// Stage the two crashes by byte progress so they always land
		// inside the transfer regardless of timing.
		if stage == 0 && len(echoedData) >= len(payload)/5 {
			stage = 1
			replicas[0].Crash()
		}
	})
	app.Source(conn, payload, false)
	// Wait for the first failover to complete, then kill the new primary
	// while the transfer is still in flight.
	for i := 0; i < 4800; i++ {
		net.RunFor(50 * time.Millisecond)
		if stage == 1 && len(svc.Chain()) == 2 {
			break
		}
	}
	if got := svc.Chain(); len(got) != 2 {
		t.Fatalf("chain after first crash = %v (echoed %d)", got, len(echoedData))
	}
	if len(echoedData) >= len(payload) {
		t.Fatal("transfer finished before the second crash could land")
	}
	replicas[1].Crash()
	net.RunFor(4 * time.Minute)

	if !bytes.Equal(*echoed, payload) {
		t.Fatalf("echo %d of %d bytes after two crashes", len(*echoed), len(payload))
	}
	if got := svc.Chain(); len(got) != 1 || got[0] != replicas[2].Addr() {
		t.Fatalf("chain = %v, want only the last survivor", got)
	}
	if fmt.Sprintf("%v", conn.State()) != "ESTABLISHED" {
		t.Fatalf("client state = %v", conn.State())
	}
}
