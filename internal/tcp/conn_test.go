package tcp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/sim"
)

// env is a two-host test network: client — server.
type env struct {
	sched      *sim.Scheduler
	net        *netsim.Network
	link       *netsim.Link
	client     *Stack
	server     *Stack
	clientAddr ipv4.Addr
	serverAddr ipv4.Addr
}

func newEnv(t *testing.T, link netsim.LinkConfig, cfg Config) *env {
	t.Helper()
	return newEnvCommon(link, cfg)
}

func newEnvCommon(link netsim.LinkConfig, cfg Config) *env {
	sched := sim.NewScheduler(21)
	nw := netsim.New(sched)
	cn := nw.AddNode(netsim.NodeConfig{Name: "client"})
	sn := nw.AddNode(netsim.NodeConfig{Name: "server"})
	l := nw.Connect(cn, sn, link)
	cip := ipv4.NewStack(cn, sched)
	sip := ipv4.NewStack(sn, sched)
	e := &env{
		sched: sched, net: nw, link: l,
		clientAddr: inet.MustParseAddr("10.0.0.1"),
		serverAddr: inet.MustParseAddr("10.0.0.2"),
	}
	cip.SetAddr(0, e.clientAddr)
	sip.SetAddr(0, e.serverAddr)
	cip.Routes().AddDefault(0)
	sip.Routes().AddDefault(0)
	e.client = NewStack(cip, cfg)
	e.server = NewStack(sip, cfg)
	return e
}

// sink accumulates everything read from a conn.
type sink struct {
	data []byte
	eof  bool
}

func attachSink(c *Conn) *sink {
	s := &sink{}
	buf := make([]byte, 4096)
	c.OnReadable(func() {
		for {
			n := c.Read(buf)
			if n == 0 {
				break
			}
			s.data = append(s.data, buf[:n]...)
		}
		if c.PeerClosed() {
			s.eof = true
		}
	})
	return s
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i/255)
	}
	return b
}

func TestHandshake(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{})
	l, err := e.server.Listen(0, 80)
	if err != nil {
		t.Fatal(err)
	}
	var accepted *Conn
	l.SetAcceptFunc(func(c *Conn) { accepted = c })
	connected := false
	c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	c.OnConnected(func() { connected = true })
	e.sched.RunUntil(time.Second)
	if !connected {
		t.Fatal("client never connected")
	}
	if accepted == nil {
		t.Fatal("server never accepted")
	}
	if c.State() != StateEstablished || accepted.State() != StateEstablished {
		t.Fatalf("states: client=%v server=%v", c.State(), accepted.State())
	}
	if accepted.Remote() != c.Local() || accepted.Local().Port != 80 {
		t.Fatalf("endpoints wrong: %v %v", accepted.Local(), accepted.Remote())
	}
}

func TestBulkTransfer(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, Config{})
	l, _ := e.server.Listen(0, 80)
	var srv *sink
	l.SetAcceptFunc(func(c *Conn) { srv = attachSink(c) })
	payload := pattern(100_000)
	c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	c.WriteAll(payload, true)
	e.sched.RunUntil(2 * time.Minute)
	if srv == nil {
		t.Fatal("no connection accepted")
	}
	if !bytes.Equal(srv.data, payload) {
		t.Fatalf("received %d bytes, want %d (or content mismatch)", len(srv.data), len(payload))
	}
	if !srv.eof {
		t.Fatal("server did not see EOF")
	}
}

func TestTransferOverLossyLink(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: 2 * time.Millisecond, Loss: 0.05}, Config{})
	l, _ := e.server.Listen(0, 80)
	var srv *sink
	var srvConn *Conn
	l.SetAcceptFunc(func(c *Conn) { srvConn = c; srv = attachSink(c) })
	payload := pattern(200_000)
	c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	c.WriteAll(payload, true)
	e.sched.RunUntil(10 * time.Minute)
	if srv == nil || !bytes.Equal(srv.data, payload) {
		got := 0
		if srv != nil {
			got = len(srv.data)
		}
		t.Fatalf("lossy transfer incomplete: got %d of %d bytes", got, len(payload))
	}
	if c.Stats().Retransmits == 0 && c.Stats().RTOEvents == 0 {
		t.Error("5%% loss produced no retransmissions — loss not exercised")
	}
	_ = srvConn
}

func TestBidirectionalEcho(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, Config{})
	l, _ := e.server.Listen(0, 7)
	l.SetAcceptFunc(func(c *Conn) {
		buf := make([]byte, 2048)
		c.OnReadable(func() {
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				c.Write(buf[:n])
			}
			if c.PeerClosed() {
				c.Close()
			}
		})
	})
	payload := pattern(50_000)
	c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 7})
	if err != nil {
		t.Fatal(err)
	}
	echoed := attachSink(c)
	c.WriteAll(payload, true)
	e.sched.RunUntil(2 * time.Minute)
	if !bytes.Equal(echoed.data, payload) {
		t.Fatalf("echo returned %d bytes, want %d", len(echoed.data), len(payload))
	}
	if !echoed.eof {
		t.Fatal("client did not observe server close")
	}
}

func TestOrderlyCloseReleasesConns(t *testing.T) {
	cfg := Config{TimeWaitDuration: 2 * time.Second}
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, cfg)
	l, _ := e.server.Listen(0, 80)
	l.SetAcceptFunc(func(c *Conn) {
		c.OnReadable(func() {
			if c.PeerClosed() {
				c.Close()
			}
		})
	})
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	var closedErr error
	gotClosed := false
	c.OnClosed(func(err error) { gotClosed = true; closedErr = err })
	c.OnConnected(func() { c.Close() })
	e.sched.RunUntil(time.Minute)
	if !gotClosed {
		t.Fatal("client OnClosed never fired")
	}
	if closedErr != nil {
		t.Fatalf("orderly close reported error %v", closedErr)
	}
	if n := e.client.NumConns() + e.server.NumConns(); n != 0 {
		t.Fatalf("%d connections still tracked after close", n)
	}
}

func TestConnectionRefused(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{})
	c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 9999})
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	c.OnClosed(func(err error) { gotErr = err })
	e.sched.RunUntil(5 * time.Second)
	if !errors.Is(gotErr, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", gotErr)
	}
	if e.server.Stats().RSTsSent == 0 {
		t.Error("server sent no RST")
	}
}

func TestDeterministicISS(t *testing.T) {
	a := TupleISS(Endpoint{Addr: 1, Port: 80}, Endpoint{Addr: 2, Port: 5000})
	b := TupleISS(Endpoint{Addr: 1, Port: 80}, Endpoint{Addr: 2, Port: 5000})
	if a != b {
		t.Fatal("TupleISS not deterministic")
	}
	c := TupleISS(Endpoint{Addr: 1, Port: 80}, Endpoint{Addr: 2, Port: 5001})
	if a == c {
		t.Fatal("TupleISS ignores the 4-tuple")
	}
}

func TestNagleCoalescesSmallWrites(t *testing.T) {
	runCase := func(noDelay bool) uint64 {
		e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: 5 * time.Millisecond}, Config{})
		l, _ := e.server.Listen(0, 80)
		l.SetAcceptFunc(func(c *Conn) { attachSink(c) })
		c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
		c.SetNoDelay(noDelay)
		c.OnConnected(func() {
			// 50 small writes in a burst.
			for i := 0; i < 50; i++ {
				c.Write([]byte("tiny-"))
			}
		})
		e.sched.RunUntil(time.Minute)
		return c.Stats().SegsSent
	}
	nagle := runCase(false)
	nodelay := runCase(true)
	if nagle >= nodelay {
		t.Fatalf("Nagle sent %d segments, NoDelay %d — expected fewer with Nagle", nagle, nodelay)
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	// Deterministically drop exactly one data segment mid-stream using a
	// forwarding router with a hook.
	sched := sim.NewScheduler(5)
	nw := netsim.New(sched)
	cn := nw.AddNode(netsim.NodeConfig{Name: "client"})
	rn := nw.AddNode(netsim.NodeConfig{Name: "router"})
	sn := nw.AddNode(netsim.NodeConfig{Name: "server"})
	nw.Connect(cn, rn, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond})
	nw.Connect(rn, sn, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond})
	cip := ipv4.NewStack(cn, sched)
	rip := ipv4.NewStack(rn, sched)
	sip := ipv4.NewStack(sn, sched)
	ca, sa := inet.MustParseAddr("10.1.0.2"), inet.MustParseAddr("10.2.0.2")
	cip.SetAddr(0, ca)
	rip.SetAddr(0, inet.MustParseAddr("10.1.0.1"))
	rip.SetAddr(1, inet.MustParseAddr("10.2.0.1"))
	sip.SetAddr(0, sa)
	cip.Routes().AddDefault(0)
	sip.Routes().AddDefault(0)
	rip.Routes().Add(ipv4.Route{Dst: ipv4.MustParsePrefix("10.1.0.0/24"), Ifindex: 0})
	rip.Routes().Add(ipv4.Route{Dst: ipv4.MustParsePrefix("10.2.0.0/24"), Ifindex: 1})
	rip.SetForwarding(true)
	dropped := false
	dataSeen := 0
	rip.SetForwardHook(ipv4.ForwardFunc(func(p *ipv4.Packet) bool {
		if p.Proto != ipv4.ProtoTCP || len(p.Payload) < HeaderLen+500 {
			return false
		}
		dataSeen++
		if dataSeen == 10 && !dropped {
			dropped = true
			return true // swallow one full-size data segment
		}
		return false
	}))
	ct := NewStack(cip, Config{})
	st := NewStack(sip, Config{})
	lis, _ := st.Listen(0, 80)
	var srv *sink
	lis.SetAcceptFunc(func(c *Conn) { srv = attachSink(c) })
	payload := pattern(150_000)
	c, _ := ct.Connect(0, Endpoint{Addr: sa, Port: 80})
	c.WriteAll(payload, true)
	sched.RunUntil(time.Minute)
	if !dropped {
		t.Fatal("test never dropped a segment")
	}
	if srv == nil || !bytes.Equal(srv.data, payload) {
		t.Fatal("transfer did not recover from single loss")
	}
	if c.Stats().FastRetransmits == 0 {
		t.Errorf("loss repaired without fast retransmit (RTOEvents=%d)", c.Stats().RTOEvents)
	}
}

func TestZeroWindowAndReopen(t *testing.T) {
	cfg := Config{RecvBufSize: 4096, SendBufSize: 65536}
	e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, cfg)
	l, _ := e.server.Listen(0, 80)
	var srvConn *Conn
	l.SetAcceptFunc(func(c *Conn) { srvConn = c })
	payload := pattern(20_000)
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	c.WriteAll(payload, true)
	// Let the window fill while the server app reads nothing.
	e.sched.RunUntil(5 * time.Second)
	if srvConn == nil {
		t.Fatal("no server conn")
	}
	if got := srvConn.rcv.readable(); got != 4096 {
		t.Fatalf("server buffered %d bytes, want full 4096", got)
	}
	// Now drain: transfer must complete even after a zero-window phase.
	var got []byte
	buf := make([]byte, 1024)
	srvConn.OnReadable(func() {
		for {
			n := srvConn.Read(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
	})
	// Kick the first read manually (data is already buffered).
	for {
		n := srvConn.Read(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	e.sched.RunUntil(5 * time.Minute)
	if !bytes.Equal(got, payload) {
		t.Fatalf("after zero-window: got %d bytes, want %d", len(got), len(payload))
	}
}

func TestMSSNegotiation(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{})
	// Server advertises a small MSS.
	e.server.cfg.MSS = 536
	l, _ := e.server.Listen(0, 80)
	var srv *sink
	l.SetAcceptFunc(func(c *Conn) { srv = attachSink(c) })
	maxSeen := 0
	e.client.SetTrace(func(dir string, _, _ Endpoint, seg *Segment) {
		if dir == "out" && len(seg.Payload) > maxSeen {
			maxSeen = len(seg.Payload)
		}
	})
	payload := pattern(10_000)
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	c.WriteAll(payload, true)
	e.sched.RunUntil(time.Minute)
	if srv == nil || !bytes.Equal(srv.data, payload) {
		t.Fatal("transfer failed")
	}
	if maxSeen > 536 {
		t.Fatalf("client sent %d-byte payload, exceeding negotiated MSS 536", maxSeen)
	}
}

func TestWraparoundTransfer(t *testing.T) {
	cfg := Config{iss: func(local, remote Endpoint) Seq { return 0xffffff00 }}
	e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, cfg)
	l, _ := e.server.Listen(0, 80)
	var srv *sink
	l.SetAcceptFunc(func(c *Conn) { srv = attachSink(c) })
	payload := pattern(30_000) // crosses the 2^32 boundary
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	c.WriteAll(payload, true)
	e.sched.RunUntil(time.Minute)
	if srv == nil || !bytes.Equal(srv.data, payload) {
		t.Fatal("transfer across sequence wraparound failed")
	}
}

// TestRetransmissionTimeoutGivesUp: a partitioned connection aborts with
// ErrTimeout on the timeout after its maxRetries-th retransmission. From the
// 500 ms floor the backoff reaches the 60 s ceiling on the eighth timeout,
// so the thirteenth fires about seven minutes in.
func TestRetransmissionTimeoutGivesUp(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{})
	l, _ := e.server.Listen(0, 80)
	var srvConn *Conn
	l.SetAcceptFunc(func(c *Conn) { srvConn = c })
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	var clientErr error
	c.OnClosed(func(err error) { clientErr = err })
	c.OnConnected(func() {
		c.Write(pattern(1000))
		// Partition the network right after the first write.
		e.link.SetLoss(1.0)
	})
	e.sched.RunUntil(10 * time.Minute)
	if !errors.Is(clientErr, ErrTimeout) {
		t.Fatalf("client err = %v, want ErrTimeout", clientErr)
	}
	if got := c.Stats().RTOEvents; got != maxRetries+1 {
		t.Fatalf("gave up after %d RTO events, want %d", got, maxRetries+1)
	}
	_ = srvConn
}

// closedGate is a ConnHooks whose deposit gate never opens and which does
// nothing else.
type closedGate struct{ c *Conn }

func (g closedGate) DepositLimit() (Seq, bool)    { return g.c.RcvNxt(), true }
func (closedGate) SendLimit() (Seq, bool)         { return 0, false }
func (closedGate) SuppressTransmit(*Segment) bool { return false }
func (closedGate) OnGateHold()                    {}
func (closedGate) OnPeerRetransmit()              {}
func (closedGate) OnRTO()                         {}
func (closedGate) OnAckProgress()                 {}
func (closedGate) OnDeposit()                     {}
func (closedGate) OnClosed(error)                 {}

func TestDuplicateDataCountsAsPeerRetransmit(t *testing.T) {
	// Drop ACKs from server to client: client RTOs and resends, server
	// must count peer retransmissions (the HydraNet-FT detector signal).
	e := newEnv(t, netsim.LinkConfig{Delay: time.Millisecond}, Config{})
	l, _ := e.server.Listen(0, 80)
	var srvConn *Conn
	l.SetAcceptFunc(func(c *Conn) { srvConn = c; attachSink(c) })
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	c.OnConnected(func() {
		c.Write([]byte("hello"))
	})
	e.sched.RunUntil(time.Second)
	if srvConn == nil {
		t.Fatal("no server conn")
	}
	// Deposit gate that never opens: server receives but cannot ACK new
	// data, so the client retransmits on timeout.
	srvConn.hooks = closedGate{srvConn}
	c.Write([]byte("world"))
	before := srvConn.Stats().PeerRetransmits
	e.sched.RunUntil(10 * time.Second)
	if got := srvConn.Stats().PeerRetransmits; got <= before {
		t.Fatalf("PeerRetransmits = %d, want > %d under withheld ACKs", got, before)
	}
}

// TestHeldFINCountsAsPeerRetransmit: a peer that has closed sends nothing but
// its FIN. While the deposit gate keeps the FIN from being consumed (and
// acknowledged), each retransmission of it must feed the failure estimator —
// behind a dead successor it is the only signal there is.
func TestHeldFINCountsAsPeerRetransmit(t *testing.T) {
	e, cli, srv := establishedPair(t, Config{})
	srv.hooks = closedGate{srv}
	cli.Close()
	e.sched.RunUntil(e.sched.Now() + 100*time.Millisecond)
	if got := srv.Stats().PeerRetransmits; got != 0 || srv.PeerClosed() {
		t.Fatalf("first FIN: %d peer retransmissions, consumed=%v; want it held and uncounted", got, srv.PeerClosed())
	}
	e.sched.RunUntil(e.sched.Now() + 4*time.Second)
	rtos := cli.Stats().RTOEvents
	if got := srv.Stats().PeerRetransmits; rtos < 2 || got != rtos {
		t.Fatalf("PeerRetransmits = %d after the client resent its FIN %d times, want one each", got, rtos)
	}
}

// TestAcceptedConnTimesItsRTOForEveryISS: the accepting side of a lossless
// transfer counts every byte as sent once and none as retransmitted, takes RTT
// samples and leaves the initial RTO — wherever its ISS falls in sequence
// space. (sndMax used to stay at the zero Seq on passive open, so for an ISS in
// the upper half no segment ever compared as fresh.)
func TestAcceptedConnTimesItsRTOForEveryISS(t *testing.T) {
	for _, iss := range []Seq{0, 1<<31 - 1, 1 << 31, 1<<32 - 1} {
		cfg := Config{iss: func(local, remote Endpoint) Seq { return iss }}
		e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, cfg)
		l, _ := e.server.Listen(0, 80)
		payload := pattern(30_000)
		var srv *Conn
		l.SetAcceptFunc(func(c *Conn) {
			srv = c
			c.WriteAll(payload, true)
		})
		c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
		if err != nil {
			t.Fatal(err)
		}
		got := attachSink(c)
		e.sched.RunUntil(time.Minute)
		if srv == nil || !bytes.Equal(got.data, payload) {
			t.Fatalf("ISS %#x: client read %d of %d bytes", uint32(iss), len(got.data), len(payload))
		}
		st := srv.Stats()
		if st.Retransmits != 0 || st.RTOEvents != 0 {
			t.Errorf("ISS %#x: %d retransmits and %d RTO events on a lossless link", uint32(iss), st.Retransmits, st.RTOEvents)
		}
		if st.BytesSent != uint64(len(payload)) {
			t.Errorf("ISS %#x: BytesSent = %d, want %d", uint32(iss), st.BytesSent, len(payload))
		}
		if n := e.server.RTTHistogram().Count(); n == 0 {
			t.Errorf("ISS %#x: the accepting stack took no RTT sample", uint32(iss))
		}
		if rto := srv.rto.Current(); rto >= initialRTO {
			t.Errorf("ISS %#x: RTO still %v, the initial value, after the transfer", uint32(iss), rto)
		}
	}
}
