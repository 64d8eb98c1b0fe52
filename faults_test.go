package hydranet

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"hydranet/internal/app"
	"hydranet/internal/netsim"
)

// faultCase is one fault test's run and its verdict, played by play on the
// Figure-3 star (ftTopology): the service on every replica, one client
// connection that writes send at the dial (and then closes, with close),
// and steps that drive the run and inject its faults. Every run is
// monitored: zero invariant violations is part of every verdict, which is
// judged after the session's Finish.
type faultCase struct {
	seed      int64
	replicas  int
	tcp       TCPConfig
	link      LinkConfig  // jitter and loss on every link; Delay, when set, on the client's only
	in        Instruments // the run's observers; the invariant monitor is always on
	accept    func(*Conn) // the service; an echo when nil
	threshold int         // the detector's retransmission threshold
	heartbeat time.Duration
	predeploy func(*faultRun) // after the observers attach, before the deploy
	setup     func(*faultRun) // after the deploy, before the settle and the dial
	send      []byte
	close     bool
	steps     []step
	verdict
}

// step is a trigger and an action, do. The trigger is one of:
//   - echoed > 0: the client has read that many bytes. do runs inside the
//     client's read callback, at that instant, and play goes on to the next
//     step at once;
//   - until != nil: until holds, polled every after. If it does not hold
//     by limit after the dial, the row fails and play goes on without do;
//   - otherwise after has passed.
type step struct {
	after  time.Duration
	echoed int
	until  func(*faultRun) bool
	limit  time.Duration
	do     func(*faultRun)
}

// verdict is what a faultCase's run must show at its end; zero fields are
// not checked.
type verdict struct {
	echo    []byte // what the client read, exactly
	closed  bool   // the client's connection closed without an error
	chain   []int  // the service's chain, by replica index
	noConns bool   // no replica holds a connection
	quiet   bool   // no client retransmission or duplicate ACK, no suspicion
	// finishErr is what Session.Finish's error must say; it must succeed
	// when empty.
	finishErr string
	check     func(*faultRun)
}

// faultRun is a faultCase being played; *stream is its client connection.
type faultRun struct {
	t *testing.T
	*stream
	net      *Net
	client   *Host
	rd       *Redirector
	replicas []*Host
	links    []*netsim.Link // the client's, then each replica's
	svc      *FTService
	sess     *Session // the row's observers
	sum      Summary  // what sess.Finish reported, for the verdict
	armed    []step   // echoed-byte steps that have not fired
}

// stream is one client connection and what it has read so far.
type stream struct {
	conn     *Conn
	got      []byte
	closed   bool
	err      error
	dialled  time.Duration
	closedAt time.Duration // since the dial
	onRead   func()
}

// play builds the star, attaches the row's observers and the monitor,
// deploys, dials, plays the steps in order, finishes the session and checks
// the verdict.
func (fc faultCase) play(t *testing.T) {
	t.Helper()
	r := &faultRun{t: t}
	r.net, r.client, r.rd, r.replicas, r.links = ftTopology(Config{Seed: fc.seed, TCP: fc.tcp}, fc.replicas, fc.link)
	fc.in.Invariants = true
	var err error
	if r.sess, err = r.net.Instrument(fc.in); err != nil {
		t.Fatal(err)
	}
	if fc.predeploy != nil {
		fc.predeploy(r)
	}
	accept := fc.accept
	if accept == nil {
		accept = echoAccept()
	}
	opts := FTOptions{Detector: DetectorParams{RetransmitThreshold: fc.threshold}, Heartbeat: fc.heartbeat}
	if r.svc, err = r.net.DeployFT(testSvc, r.rd, r.replicas, opts, accept); err != nil {
		t.Fatal(err)
	}
	if fc.setup != nil {
		fc.setup(r)
	}
	r.net.Settle()
	r.stream = r.dial(r.client, testSvc, fc.send, fc.close)
	r.onRead = func() {
		for len(r.armed) > 0 && len(r.got) >= r.armed[0].echoed {
			s := r.armed[0]
			r.armed = r.armed[1:]
			s.do(r)
		}
	}
	for i, s := range fc.steps {
		switch {
		case s.echoed > 0:
			r.armed = append(r.armed, s)
			continue
		case s.until != nil:
			for !s.until(r) && r.net.Now() < r.dialled+s.limit {
				r.net.RunFor(s.after)
			}
			if !s.until(r) {
				t.Errorf("step %d: not met %v after the dial (the client read %d bytes)", i, s.limit, len(r.got))
				continue
			}
		default:
			r.net.RunFor(s.after)
		}
		if s.do != nil {
			s.do(r)
		}
	}
	switch r.sum, err = r.sess.Finish(); {
	case fc.finishErr == "" && err != nil:
		t.Fatal(err)
	case fc.finishErr != "" && (err == nil || !strings.Contains(err.Error(), fc.finishErr)):
		t.Fatalf("Finish = %v, want the %s error", err, fc.finishErr)
	}
	if n := r.sum.Audit.TotalViolations(); n != 0 {
		t.Errorf("%d invariant violations, the first: %v", n, r.sum.Audit.Violations[0])
	}
	fc.verdict.judge(r)
}

func (v verdict) judge(r *faultRun) {
	t := r.t
	t.Helper()
	for _, s := range r.armed {
		t.Errorf("the client read %d bytes: the step at %d never fired", len(r.got), s.echoed)
	}
	if v.echo != nil && !bytes.Equal(r.got, v.echo) {
		if len(v.echo) <= 64 {
			t.Errorf("echo = %q, want %q", r.got, v.echo)
		} else {
			same := 0
			for same < min(len(r.got), len(v.echo)) && r.got[same] == v.echo[same] {
				same++
			}
			t.Errorf("the client read %d bytes, want %d; the first %d agree", len(r.got), len(v.echo), same)
		}
	}
	if v.closed && (!r.closed || r.err != nil) {
		t.Errorf("client connection closed=%v err=%v, want a clean close", r.closed, r.err)
	}
	if v.chain != nil {
		r.wantChain(v.chain...)
	}
	for _, h := range r.replicas {
		if n := h.TCP().NumConns(); v.noConns && n != 0 {
			t.Errorf("%s still holds %d connections", h.Name(), n)
		}
	}
	if v.quiet {
		var suspicions uint64
		for _, h := range r.net.Snapshot().Hosts {
			if h.Manager != nil {
				suspicions += h.Manager.Suspicions
			}
		}
		if st := r.client.TCP().ConnTotals(); st.Retransmits != 0 || st.DupAcksSeen != 0 || suspicions != 0 {
			t.Errorf("the client retransmitted %d segments after %d duplicate ACKs; %d suspicions; want all 0",
				st.Retransmits, st.DupAcksSeen, suspicions)
		}
	}
	if v.check != nil {
		v.check(r)
	}
}

// wantChain fails the row unless the service's chain is the replicas at
// idx, in order.
func (r *faultRun) wantChain(idx ...int) {
	r.t.Helper()
	var want []Addr
	for _, i := range idx {
		want = append(want, r.replicas[i].Addr())
	}
	if got := r.svc.Chain(); !slices.Equal(got, want) {
		r.t.Errorf("chain at %v = %v, want %v", r.net.Now(), got, want)
	}
}

// dial connects from to svc, writes send (then closes, with close) and
// reads everything the service answers. Each read is published for the
// monitor's client-delivery rule, and the client closes when the server
// does, as a request/response client would.
func (r *faultRun) dial(from *Host, svc ServiceID, send []byte, close bool) *stream {
	conn, err := from.Dial(svc)
	if err != nil {
		r.t.Fatal(err)
	}
	s := &stream{conn: conn, got: make([]byte, 0, len(send)), dialled: r.net.Now()}
	buf, bus := make([]byte, 8192), r.net.Bus()
	conn.OnReadable(func() {
		for n := conn.Read(buf); n > 0; n = conn.Read(buf) {
			s.got = append(s.got, buf[:n]...)
			bus.Publish(Event{Kind: KindClientDeliver, Node: from.Name(), Size: n})
		}
		if conn.PeerClosed() {
			conn.Close()
		}
		if s.onRead != nil {
			s.onRead()
		}
	})
	conn.OnClosed(func(err error) { s.closed, s.err, s.closedAt = true, err, r.net.Now()-s.dialled })
	app.Source(conn, send, close)
	return s
}

// readAll is a step that runs the net a second at a time until the client
// has read n bytes, for at most limit after the dial.
func readAll(n int, limit time.Duration) step {
	return step{after: time.Second, limit: limit, until: func(r *faultRun) bool { return len(r.got) == n }}
}

// crashPrimary is a step action that crashes the service's primary.
func crashPrimary(r *faultRun) { r.svc.CrashPrimary() }

// crash returns a step action that crashes replica i.
func crash(i int) func(*faultRun) { return func(r *faultRun) { r.replicas[i].Crash() } }

// pattern returns n bytes of i*k, plus i>>shift when shift > 0: a stream
// whose bytes depend on their offset.
func pattern(n, k, shift int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * k)
		if shift > 0 {
			b[i] += byte(i >> shift)
		}
	}
	return b
}
