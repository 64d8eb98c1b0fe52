package tcp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/sim"
)

func establishedPair(t *testing.T, cfg Config) (*env, *Conn, *Conn) {
	t.Helper()
	e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, cfg)
	l, err := e.server.Listen(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	var srv *Conn
	l.SetAcceptFunc(func(c *Conn) { srv = c })
	cli, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	e.sched.RunUntil(time.Second)
	if srv == nil || cli.State() != StateEstablished {
		t.Fatal("setup: connection not established")
	}
	return e, cli, srv
}

func TestHalfCloseServerKeepsSending(t *testing.T) {
	e, cli, srv := establishedPair(t, Config{TimeWaitDuration: time.Second})
	got := attachSink(cli)
	// Client half-closes; the server may keep sending.
	cli.Close()
	e.sched.RunUntil(2 * time.Second)
	if cli.State() != StateFinWait2 {
		t.Fatalf("client state = %v, want FIN-WAIT-2", cli.State())
	}
	if !srv.PeerClosed() {
		t.Fatal("server did not see client FIN")
	}
	srv.Write([]byte("parting data"))
	e.sched.RunUntil(4 * time.Second)
	if string(got.data) != "parting data" {
		t.Fatalf("data after half-close = %q", got.data)
	}
	srv.Close()
	e.sched.RunUntil(10 * time.Second)
	if e.client.NumConns()+e.server.NumConns() != 0 {
		t.Fatal("connections not reaped after full close")
	}
}

func TestSimultaneousClose(t *testing.T) {
	e, cli, srv := establishedPair(t, Config{TimeWaitDuration: time.Second})
	var cliErr, srvErr error
	cliDone, srvDone := false, false
	cli.OnClosed(func(err error) { cliDone, cliErr = true, err })
	srv.OnClosed(func(err error) { srvDone, srvErr = true, err })
	// Close both ends in the same instant: FINs cross in flight.
	cli.Close()
	srv.Close()
	e.sched.RunUntil(30 * time.Second)
	if !cliDone || !srvDone {
		t.Fatalf("closed: client=%v server=%v", cliDone, srvDone)
	}
	if cliErr != nil || srvErr != nil {
		t.Fatalf("simultaneous close errors: %v / %v", cliErr, srvErr)
	}
}

func TestAbortSendsRST(t *testing.T) {
	e, cli, srv := establishedPair(t, Config{})
	var srvErr error
	srv.OnClosed(func(err error) { srvErr = err })
	cli.Abort()
	e.sched.RunUntil(e.sched.Now() + time.Second)
	if !errors.Is(srvErr, ErrReset) {
		t.Fatalf("server err = %v, want ErrReset", srvErr)
	}
	if e.client.NumConns()+e.server.NumConns() != 0 {
		t.Fatal("aborted connections not reaped")
	}
}

func TestListenerCloseRefusesNewConns(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{})
	l, _ := e.server.Listen(0, 80)
	l.SetAcceptFunc(func(c *Conn) {})
	l.Close()
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	var err error
	c.OnClosed(func(e error) { err = e })
	e.sched.RunUntil(5 * time.Second)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused after listener close", err)
	}
}

func TestListenBusy(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{}, Config{})
	if _, err := e.server.Listen(0, 80); err != nil {
		t.Fatal(err)
	}
	if _, err := e.server.Listen(0, 80); !errors.Is(err, ErrListenBusy) {
		t.Fatalf("err = %v, want ErrListenBusy", err)
	}
	// A specific-address listener on the same port coexists.
	if _, err := e.server.Listen(e.serverAddr, 80); err != nil {
		t.Fatalf("specific-address listen failed: %v", err)
	}
}

func TestConnectNoRoute(t *testing.T) {
	sched := sim.NewScheduler(1)
	nw := netsim.New(sched)
	n := nw.AddNode(netsim.NodeConfig{})
	st := NewStack(ipv4.NewStack(n, sched), Config{})
	if _, err := st.Connect(0, Endpoint{Addr: inet.MustParseAddr("1.2.3.4"), Port: 80}); err == nil {
		t.Fatal("Connect without a route succeeded")
	}
}

func TestDelayedAckTimer(t *testing.T) {
	// With delayed ACKs, a single small segment is acknowledged by the
	// timer, not immediately.
	cfg := Config{DelayedAckTimeout: 200 * time.Millisecond}
	e, cli, _ := establishedPair(t, cfg)
	var ackTimes []time.Duration
	e.client.SetTrace(func(dir string, _, _ Endpoint, seg *Segment) {
		if dir == "in" && seg.Flags.Has(FlagACK) && len(seg.Payload) == 0 {
			ackTimes = append(ackTimes, e.sched.Now())
		}
	})
	start := e.sched.Now()
	cli.Write([]byte("one small segment"))
	e.sched.RunUntil(start + 2*time.Second)
	if len(ackTimes) == 0 {
		t.Fatal("no ACK arrived")
	}
	delay := ackTimes[0] - start
	if delay < 150*time.Millisecond {
		t.Fatalf("ACK after %v, expected the ~200ms delayed-ACK timer", delay)
	}
}

func TestSecondSegmentAcksImmediately(t *testing.T) {
	cfg := Config{DelayedAckTimeout: 200 * time.Millisecond}
	e, cli, _ := establishedPair(t, cfg)
	var ackTimes []time.Duration
	e.client.SetTrace(func(dir string, _, _ Endpoint, seg *Segment) {
		if dir == "in" && seg.Flags.Has(FlagACK) && len(seg.Payload) == 0 {
			ackTimes = append(ackTimes, e.sched.Now())
		}
	})
	cli.SetNoDelay(true)
	start := e.sched.Now()
	cli.Write([]byte("first"))
	cli.Write([]byte("second"))
	e.sched.RunUntil(start + 2*time.Second)
	if len(ackTimes) == 0 {
		t.Fatal("no ACK arrived")
	}
	if delay := ackTimes[0] - start; delay > 100*time.Millisecond {
		t.Fatalf("ACK after %v; the second segment should force an immediate ACK", delay)
	}
}

func TestGarbageFramesDoNotPanic(t *testing.T) {
	e, cli, _ := establishedPair(t, Config{})
	rng := rand.New(rand.NewSource(99))
	node := e.server.IP()
	for i := 0; i < 2000; i++ {
		n := rng.Intn(100)
		frame := make([]byte, n)
		rng.Read(frame)
		node.Node() // keep the stack reachable
		e.server.IP().HandleFrame(0, frame)
	}
	e.sched.RunUntil(10 * time.Second)
	if e.server.Stats().BadSegments == 0 && e.server.IP().Stats().BadHeader == 0 {
		t.Error("garbage produced no error counts")
	}
	_ = cli
}

func TestRandomSegmentsDoNotPanic(t *testing.T) {
	// Checksummed but otherwise random segments fired at an established
	// connection: the state machine must never panic; the connection may
	// legitimately die (RST flag), but only cleanly.
	e, cli, srv := establishedPair(t, Config{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		seg := &Segment{
			SrcPort: cli.Local().Port,
			DstPort: 80,
			Seq:     Seq(rng.Uint32()),
			Ack:     Seq(rng.Uint32()),
			Flags:   Flags(rng.Intn(64)) &^ FlagRST, // RST would end the test trivially
			Window:  uint16(rng.Intn(65536)),
		}
		if rng.Intn(2) == 0 {
			seg.Payload = make([]byte, rng.Intn(1000))
			rng.Read(seg.Payload)
		}
		b := seg.Marshal(cli.Local().Addr, e.serverAddr)
		pkt := &ipv4.Packet{
			Header: ipv4.Header{
				TTL: 4, Proto: ipv4.ProtoTCP,
				Src: cli.Local().Addr, Dst: e.serverAddr,
				ID: uint16(i), TotalLen: ipv4.HeaderLen + len(b),
			},
			Payload: b,
		}
		e.server.DeliverIP(pkt)
		if i%100 == 0 {
			e.sched.RunUntil(e.sched.Now() + time.Millisecond)
		}
	}
	e.sched.RunUntil(e.sched.Now() + 10*time.Second)
	// The server connection object must be in a coherent state.
	switch srv.State() {
	case StateEstablished, StateClosed, StateCloseWait, StateFinWait1,
		StateFinWait2, StateClosing, StateLastAck, StateTimeWait:
	default:
		t.Fatalf("server in impossible state %v", srv.State())
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{}, Config{})
	l, _ := e.server.Listen(0, 80)
	l.SetAcceptFunc(func(c *Conn) {})
	seen := map[uint16]bool{}
	for i := 0; i < 50; i++ {
		c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
		if err != nil {
			t.Fatal(err)
		}
		if seen[c.Local().Port] {
			t.Fatalf("ephemeral port %d reused while active", c.Local().Port)
		}
		seen[c.Local().Port] = true
	}
}

func TestWriteAfterCloseRejected(t *testing.T) {
	e, cli, _ := establishedPair(t, Config{})
	cli.Close()
	if n := cli.Write([]byte("too late")); n != 0 {
		t.Fatalf("Write after Close accepted %d bytes", n)
	}
	e.sched.RunUntil(time.Minute)
}

func TestStackStatsProgress(t *testing.T) {
	e, cli, _ := establishedPair(t, Config{})
	cli.Write([]byte("count me"))
	e.sched.RunUntil(5 * time.Second)
	cs, ss := e.client.Stats(), e.server.Stats()
	if cs.SegsOut == 0 || cs.SegsIn == 0 || ss.SegsOut == 0 || ss.SegsIn == 0 {
		t.Fatalf("stats not counting: client=%+v server=%+v", cs, ss)
	}
}

// --- TIME-WAIT rows of the RFC 793 state table -------------------------------

// timeWaitPair closes an established pair from the client side first, so the
// client ends in TIME-WAIT and the server in CLOSED, and returns the instant
// the client entered TIME-WAIT.
func timeWaitPair(t *testing.T, msl2 time.Duration) (e *env, cli, srv *Conn, entered time.Duration) {
	t.Helper()
	e, cli, srv = establishedPair(t, Config{TimeWaitDuration: msl2})
	cli.Close()
	e.sched.RunUntil(e.sched.Now() + 100*time.Millisecond)
	srv.Close()
	for cli.State() != StateTimeWait {
		if !e.sched.Step() {
			t.Fatalf("client never reached TIME-WAIT (state %v)", cli.State())
		}
	}
	return e, cli, srv, e.sched.Now()
}

// TestTimeWaitRows drives one connection into TIME-WAIT per row, applies the
// row's stimulus one second in, and checks the RFC 793 reaction: what is
// sent, when (and whether) the 2MSL timer expires, what the application hears.
// wantFired is Scheduler.Fired() at the end of the row as recorded on commit
// 2659195, where TIME-WAIT was a per-connection sim.Timer, less the dequeue
// event each of the row's frames cost there: however the wait is queued, it
// must stay exactly one event per expiry and none per restart.
func TestTimeWaitRows(t *testing.T) {
	const msl2 = 4 * time.Second
	const stimulusAt = time.Second
	// fromPeer builds a segment as the (already closed) server would send it.
	fromPeer := func(flags Flags, payload int) func(cli, srv *Conn) *Segment {
		return func(cli, srv *Conn) *Segment {
			seg := &Segment{SrcPort: srv.Local().Port, DstPort: cli.Local().Port,
				Flags: flags, Seq: srv.SndNxt(), Ack: cli.SndNxt(), Window: 8192}
			if flags.Has(FlagFIN) {
				seg.Seq = srv.SndNxt().Add(-1) // the FIN's own sequence number
			}
			if payload > 0 {
				seg.Payload = make([]byte, payload)
			}
			return seg
		}
	}
	rows := []struct {
		name       string
		segs       []func(cli, srv *Conn) *Segment // injected at +1s, +2s, …
		reset      bool                            // Stack.Reset at +1s
		wantAcks   int                             // segments the TIME-WAIT endpoint sends in reaction
		wantClosed time.Duration                   // OnClosed instant, relative to TIME-WAIT entry
		wantErr    error
		wantFired  uint64
	}{
		{name: "2MSL expiry", wantClosed: msl2, wantFired: 22},
		{name: "retransmitted FIN re-acked, wait restarts", segs: []func(cli, srv *Conn) *Segment{fromPeer(FlagFIN|FlagACK, 0)},
			wantAcks: 1, wantClosed: stimulusAt + msl2, wantFired: 28},
		{name: "two retransmitted FINs: expiry 2MSL after the last", segs: []func(cli, srv *Conn) *Segment{
			fromPeer(FlagFIN|FlagACK, 0), fromPeer(FlagFIN|FlagACK, 0)},
			wantAcks: 2, wantClosed: 2*stimulusAt + msl2, wantFired: 34},
		{name: "data ignored", segs: []func(cli, srv *Conn) *Segment{fromPeer(FlagACK|FlagPSH, 100)},
			wantClosed: msl2, wantFired: 22},
		{name: "RST ignored", segs: []func(cli, srv *Conn) *Segment{fromPeer(FlagRST|FlagACK, 0)},
			wantClosed: msl2, wantFired: 22},
		{name: "Stack.Reset", reset: true, wantClosed: stimulusAt, wantErr: ErrReset, wantFired: 21},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			e, cli, srv, entered := timeWaitPair(t, msl2)
			var closedAt []time.Duration
			var closedErr error
			cli.OnClosed(func(err error) { closedAt, closedErr = append(closedAt, e.sched.Now()-entered), err })
			late := 0 // application callbacks after the connection closed
			cli.OnReadable(func() { late++ })
			cli.OnWritable(func() { late++ })
			sent := 0
			e.client.SetTrace(func(dir string, _, _ Endpoint, seg *Segment) {
				if dir == "out" {
					sent++
					if seg.Flags != FlagACK || seg.Ack != srv.SndNxt() {
						t.Errorf("TIME-WAIT endpoint sent %v ack %d, want a pure ACK of %d", seg.Flags, seg.Ack, srv.SndNxt())
					}
				}
			})
			for i, mk := range row.segs {
				e.sched.RunUntil(entered + time.Duration(i+1)*stimulusAt)
				e.deliverToClient(mk(cli, srv))
				if cli.State() != StateTimeWait {
					t.Fatalf("state %v after stimulus %d, want TIME-WAIT", cli.State(), i)
				}
			}
			if row.reset {
				e.sched.RunUntil(entered + stimulusAt)
				e.client.Reset()
			}
			e.sched.RunUntil(entered + 4*msl2)
			if len(closedAt) != 1 || closedAt[0] != row.wantClosed || !errors.Is(closedErr, row.wantErr) {
				t.Errorf("OnClosed at %v (err %v), want exactly once at %v (err %v)", closedAt, closedErr, row.wantClosed, row.wantErr)
			}
			if cli.State() != StateClosed || e.client.NumConns() != 0 {
				t.Errorf("state %v with %d connections in the table, want CLOSED and none", cli.State(), e.client.NumConns())
			}
			if sent != row.wantAcks {
				t.Errorf("TIME-WAIT endpoint sent %d segments, want %d", sent, row.wantAcks)
			}
			if late != 0 {
				t.Errorf("%d application callbacks after the close", late)
			}
			if p := e.sched.Pending(); p != 0 {
				t.Errorf("%d events still pending", p)
			}
			if got := e.sched.Fired(); got != row.wantFired {
				t.Errorf("Fired = %d, want %d", got, row.wantFired)
			}
		})
	}
}

// TestEphemeralPortSkipsLiveConnection: a client that closes first leaves
// each port in TIME-WAIT behind it. When the allocator comes round the
// dynamic range again, a port whose earlier connection to the same server is
// still in TIME-WAIT must be passed over, not handed out to fail with
// "connection exists".
func TestEphemeralPortSkipsLiveConnection(t *testing.T) {
	cfg := Config{TimeWaitDuration: 2 * time.Second}
	e := newEnv(t, netsim.LinkConfig{Rate: 1_000_000_000, Delay: 5 * time.Microsecond}, cfg)
	l, err := e.server.Listen(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	l.SetAcceptFunc(func(c *Conn) {
		c.OnReadable(func() {
			if c.PeerClosed() {
				c.Close()
			}
		})
	})
	dial := func() *Conn {
		t.Helper()
		c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
		if err != nil {
			t.Fatalf("connect %d: %v", e.client.ephemeral-firstEphemeral, err)
		}
		e.sched.RunUntil(e.sched.Now() + 200*time.Microsecond)
		if c.State() != StateEstablished {
			t.Fatalf("connection from port %d: state %v", c.Local().Port, c.State())
		}
		return c
	}
	closeFirst := func(c *Conn) {
		t.Helper()
		c.Close()
		e.sched.RunUntil(e.sched.Now() + 200*time.Microsecond)
		if c.State() != StateTimeWait {
			t.Fatalf("connection from port %d: state %v after a client-side close, want TIME-WAIT", c.Local().Port, c.State())
		}
	}
	// The first connection stays open while the loop uses up the rest of the
	// range, and closes late enough to be in TIME-WAIT at the wrap; the
	// loop's own TIME-WAITs (2 s) have expired by then.
	const ports = 0x10000 - firstEphemeral
	lingering := dial()
	for i := 1; i < ports; i++ {
		if i == ports-100 {
			closeFirst(lingering)
		}
		closeFirst(dial())
	}
	if lingering.State() != StateTimeWait {
		t.Fatalf("first connection is in %v at the wrap, want TIME-WAIT — the scenario does not collide", lingering.State())
	}
	c := dial() // the port after the wrap is the lingering connection's
	if c.Local().Port == lingering.Local().Port {
		t.Fatalf("port %d handed out twice", c.Local().Port)
	}
	if want := lingering.Local().Port + 1; c.Local().Port != want {
		t.Errorf("port %d after the wrap, want %d: the next free one", c.Local().Port, want)
	}
}

// TestTimeWaitReleasesBuffers: a connection entering TIME-WAIT hands its
// socket buffers back to the stack — the receive side only once the
// application has read everything — and the stack's next connection gets
// those very arrays.
func TestTimeWaitReleasesBuffers(t *testing.T) {
	e, cli, srv := establishedPair(t, Config{TimeWaitDuration: 10 * time.Second})
	got := attachSink(cli)
	cli.Write(pattern(3000))
	srv.Write(pattern(2000))
	e.sched.RunUntil(e.sched.Now() + time.Second)
	sndArr, rcvArr := &cli.sndBuf.data.store[0], &cli.rcv.buf.store[0]
	cli.Close()
	e.sched.RunUntil(e.sched.Now() + 100*time.Millisecond)
	srv.Close()
	e.sched.RunUntil(e.sched.Now() + time.Second)
	if cli.State() != StateTimeWait || len(got.data) != 2000 {
		t.Fatalf("client in %v with %d bytes read, want TIME-WAIT and 2000", cli.State(), len(got.data))
	}
	if cli.sndBuf.data.store != nil || cli.rcv.buf.store != nil {
		t.Fatal("TIME-WAIT connection still holds socket-buffer arrays")
	}
	// The server never read its 3000 bytes: they must outlive its close.
	if srv.State() != StateClosed || srv.rcv.readable() != 3000 {
		t.Fatalf("server in %v with %d bytes readable, want CLOSED and 3000", srv.State(), srv.rcv.readable())
	}
	buf := make([]byte, 4096)
	if n := srv.Read(buf); n != 3000 || !bytes.Equal(buf[:n], pattern(3000)) {
		t.Fatalf("server read %d bytes after close, or the wrong ones", n)
	}

	next, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	attachSink(next)
	var srv2 *Conn
	e.server.listener(Endpoint{Port: 80}).SetAcceptFunc(func(c *Conn) { srv2 = c })
	e.sched.RunUntil(e.sched.Now() + time.Second)
	next.Write(pattern(3000))
	srv2.Write(pattern(2000))
	e.sched.RunUntil(e.sched.Now() + time.Second)
	if &next.sndBuf.data.store[0] != sndArr && &next.sndBuf.data.store[0] != rcvArr {
		t.Error("the next connection's send buffer is a fresh array, not a recycled one")
	}
	if &next.rcv.buf.store[0] != sndArr && &next.rcv.buf.store[0] != rcvArr {
		t.Error("the next connection's receive buffer is a fresh array, not a recycled one")
	}
}
