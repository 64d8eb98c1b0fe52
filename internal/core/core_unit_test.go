package core_test

import (
	"slices"
	"sort"
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
	"hydranet/internal/core"
	"hydranet/internal/obs"
	"hydranet/internal/tcp"
	"hydranet/internal/testbed"
)

func TestPromoteDemoteIdempotent(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 81})
	h := net.AddHost("h", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	net.Link(h, rd.Host, hydranet.LinkConfig{})
	net.AutoRoute()
	port := h.FTManager().SetPortOpt(svc, core.ModeBackup, core.DetectorParams{})

	port.Promote()
	port.Promote() // second promote is a no-op
	if port.Mode() != core.ModePrimary {
		t.Fatalf("mode = %v", port.Mode())
	}
	if got := h.FTManager().Stats().Promotions; got != 1 {
		t.Fatalf("promotions = %d, want 1 (idempotent)", got)
	}
	port.Demote()
	port.Demote()
	if port.Mode() != core.ModeBackup {
		t.Fatalf("mode = %v after demote", port.Mode())
	}
}

func TestChainMsgForUnknownServiceCounted(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 82})
	a := net.AddHost("a", hydranet.HostConfig{})
	b := net.AddHost("b", hydranet.HostConfig{})
	net.Link(a, b, hydranet.LinkConfig{Delay: time.Millisecond})
	net.AutoRoute()
	// Both managers exist; a sends a chain message for a service b never
	// registered.
	_ = a.FTManager()
	mgrB := b.FTManager()
	msg := core.ChainMsg{
		Service: hydranet.ServiceID{Addr: hydranet.MustAddr("9.9.9.9"), Port: 99},
		Client:  hydranet.Endpoint{Addr: 1, Port: 2},
		SndNxt:  10, RcvNxt: 20,
	}
	if err := a.UDP().SendTo(0, core.AckChannelPort,
		hydranet.UDPEndpoint{Addr: b.Addr(), Port: core.AckChannelPort}, msg.Marshal()); err != nil {
		t.Fatal(err)
	}
	net.RunFor(time.Second)
	if got := mgrB.Stats().ChainMsgsOrphan; got != 1 {
		t.Fatalf("orphan chain messages = %d, want 1", got)
	}
}

func TestGarbageOnAckChannelCounted(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 83})
	a := net.AddHost("a", hydranet.HostConfig{})
	b := net.AddHost("b", hydranet.HostConfig{})
	net.Link(a, b, hydranet.LinkConfig{Delay: time.Millisecond})
	net.AutoRoute()
	mgrB := b.FTManager()
	_ = a.UDP().SendTo(0, 1234,
		hydranet.UDPEndpoint{Addr: b.Addr(), Port: core.AckChannelPort}, []byte("not a chain msg"))
	net.RunFor(time.Second)
	if got := mgrB.Stats().ChainMsgsBad; got != 1 {
		t.Fatalf("bad chain messages = %d, want 1", got)
	}
}

// TestChainMsgBeforeSYN: the multicast race — a successor's chain message
// for a connection arrives before our copy of the SYN. The limits must be
// remembered and applied once the connection exists, and the connection must
// live in the placeholder that remembered them: the record is adopted in
// place, not replaced.
func TestChainMsgBeforeSYN(t *testing.T) {
	// Give the future primary a long, slow link so its SYN copy arrives
	// well after the backup has already processed the handshake and sent
	// chain messages — over a short link of their own, or they would queue
	// behind the SYN on the slow one.
	net := hydranet.New(hydranet.Config{Seed: 84})
	client := net.AddHost("client", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	s0 := net.AddHost("s0", hydranet.HostConfig{})
	s1 := net.AddHost("s1", hydranet.HostConfig{})
	fast := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	slow := hydranet.LinkConfig{Rate: 10_000_000, Delay: 40 * time.Millisecond}
	net.Link(client, rd.Host, fast)
	net.Link(s0, rd.Host, slow) // primary is far away
	net.Link(s1, rd.Host, fast) // backup is near
	net.Link(s1, s0, fast)      // the acknowledgment channel's shortcut
	net.AutoRoute()
	var accepted []*hydranet.Conn
	if _, err := net.DeployFT(svc, rd, []*hydranet.Host{s0, s1}, hydranet.FTOptions{}, func(c *hydranet.Conn) {
		accepted = append(accepted, c)
		app.Echo(c)
	}); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	conn, _ := client.Dial(svc)
	var echoed []byte
	app.Collect(conn, &echoed)
	app.Source(conn, []byte("racing the chain"), false)
	port := s0.FTManager().Port(svc)
	// Step until the primary holds a record for the client: the placeholder,
	// with the backup's limits and no connection yet.
	var early *hydranet.Conn
	var earlyDeposit, earlySend tcp.Seq
	for step := 0; early == nil && step < 200; step++ {
		net.RunFor(time.Millisecond)
		var adopted, ok bool
		if early, adopted, earlyDeposit, earlySend, ok = port.Record(conn.Local()); early != nil && (adopted || !ok) {
			t.Fatalf("the primary's first record for the client: adopted %v, limits %v; want a placeholder with limits", adopted, ok)
		}
	}
	if early == nil {
		t.Fatal("no chain message reached the primary")
	}
	// Step until the SYN arrives: the limits must already be there.
	for adopted := false; !adopted; {
		net.RunFor(time.Millisecond)
		c, a, deposit, send, ok := port.Record(conn.Local())
		if adopted = a; adopted && (c != early || !ok || deposit.LT(earlyDeposit) || send.LT(earlySend)) {
			t.Fatalf("adopted a different record (%v) or lost the early limits: ok %v, %v/%v after %v/%v",
				c != early, ok, deposit, send, earlyDeposit, earlySend)
		}
	}
	net.RunFor(10 * time.Second)
	if string(echoed) != "racing the chain" {
		t.Fatalf("echo = %q under SYN/chain race", echoed)
	}
	if len(accepted) != 2 || (accepted[0] != early && accepted[1] != early) {
		t.Fatalf("the primary did not accept the placeholder's connection (%d accepted)", len(accepted))
	}
	if n := port.Conns(); n != 1 {
		t.Fatalf("the primary manages %d connections, want 1", n)
	}
}

func TestAckChannelPortBusy(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 85})
	h := net.AddHost("h", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	net.Link(h, rd.Host, hydranet.LinkConfig{})
	net.AutoRoute()
	// Squat the acknowledgment-channel port before the manager starts.
	if err := h.UDP().Bind(0, core.AckChannelPort, hydranet.UDPRecvFunc(func(hydranet.UDPEndpoint, hydranet.Addr, []byte) {})); err != nil {
		t.Fatal(err)
	}
	if err := new(core.Manager).Init(h.TCP(), h.UDP(), h.Addr()); err == nil {
		t.Fatal("manager bound a busy acknowledgment-channel port")
	}
}

// TestPendingChainEntryExpires: chain messages for a connection whose SYN
// never arrives must not leak placeholder state forever.
func TestPendingChainEntryExpires(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 86})
	a := net.AddHost("a", hydranet.HostConfig{})
	b := net.AddHost("b", hydranet.HostConfig{})
	net.Link(a, b, hydranet.LinkConfig{Delay: time.Millisecond})
	net.AutoRoute()
	_ = a.FTManager()
	port := b.FTManager().SetPortOpt(svc, core.ModeBackup, core.DetectorParams{})
	msg := core.ChainMsg{
		Service: svc,
		Client:  hydranet.Endpoint{Addr: 7, Port: 7},
		SndNxt:  1, RcvNxt: 1,
	}
	_ = a.UDP().SendTo(0, core.AckChannelPort,
		hydranet.UDPEndpoint{Addr: b.Addr(), Port: core.AckChannelPort}, msg.Marshal())
	net.RunFor(time.Second)
	if port.Conns() != 1 {
		t.Fatalf("placeholder not created: %d", port.Conns())
	}
	net.RunFor(2 * time.Minute)
	if port.Conns() != 0 {
		t.Fatalf("placeholder leaked: %d entries after TTL", port.Conns())
	}
}

// TestClosedRecordKeepsNewerEntry: a record whose connection closes removes
// its client's entry only while the entry is still that record. Here the
// listener's setup function runs for the client endpoint of a live
// connection, so a newer record takes the entry (the stack itself hands such
// a SYN to the live connection); the first one's close must leave the newer
// record managed.
func TestClosedRecordKeepsNewerEntry(t *testing.T) {
	play(t, testbed.Scenario{Seed: 87, Replicas: 1, Send: []byte("first"), Steps: []testbed.Step{{After: time.Second, Do: func(r *testbed.Run) {
		port := r.Replicas[0].FTManager().Port(svc)
		first, _, _, _, _ := port.Record(r.Conn.Local())
		if first == nil || first.State() != tcp.StateEstablished {
			t.Fatal("the first connection is not established")
		}
		newer, _ := port.Adopt(r.Conn.Local())
		if newer == first || port.Conns() != 1 {
			t.Fatalf("a SYN for a live record's client: new record %v, %d records; want a new one, 1", newer != first, port.Conns())
		}
		first.Abort()
		r.Net.RunFor(time.Second)
		if c, _, _, _, _ := port.Record(r.Conn.Local()); c != newer {
			t.Fatal("the closed record deleted the newer record's entry")
		}
	}}}})
}

// TestRoleChangeReachesLiveConnections: the hooks read the port's role when
// TCP asks, so demoting the replica under an established connection diverts
// that connection's very next segment into the acknowledgment channel, and
// promoting it puts the stream back on the wire — nothing is re-installed
// per connection.
func TestRoleChangeReachesLiveConnections(t *testing.T) {
	r := play(t, testbed.Scenario{Seed: 87, Replicas: 1, Send: []byte("as primary;"), Steps: []testbed.Step{
		{After: time.Second, Do: func(r *testbed.Run) {
			if r.Delivered != len("as primary;") {
				t.Fatalf("echoed %d bytes before any role change, want %d", r.Delivered, len("as primary;"))
			}
			r.Replicas[0].FTManager().Port(svc).Demote()
			suppressed := r.Replicas[0].TCP().ConnTotals().SegsSuppressed
			r.Write([]byte("as backup;"))
			r.Net.RunFor(300 * time.Millisecond)
			if r.Delivered != len("as primary;") {
				t.Fatalf("echoed %d bytes: a backup's segments reached the client", r.Delivered)
			}
			if got := r.Replicas[0].TCP().ConnTotals().SegsSuppressed; got <= suppressed {
				t.Fatalf("SegsSuppressed stayed at %d after the demotion", got)
			}
			r.Replicas[0].FTManager().Port(svc).Promote()
		}},
		{After: 5 * time.Second},
	}})
	if !r.Echoed() {
		t.Fatalf("echoed %d bytes after re-promotion, garbled=%v: want the whole stream", r.Delivered, r.Garbled)
	}
}

// TestSetUpstreamAnnouncesCursors: a replica given a new predecessor sends it
// the current cursors of every connection it holds, once, in client order, at
// the end of the instant — the new predecessor has never heard from it and
// would otherwise wait for its next segment. An unchanged or cleared upstream,
// and a placeholder that has no connection yet, send nothing.
func TestSetUpstreamAnnouncesCursors(t *testing.T) {
	play(t, testbed.Scenario{Seed: 86, Replicas: 3, Send: []byte("established, then idle"), Steps: []testbed.Step{
		{Do: func(r *testbed.Run) {
			for range 2 {
				r.Dial(r.Client, svc, []byte("established, then idle"), false)
			}
		}},
		{After: 5 * time.Second, Do: func(r *testbed.Run) {
			net, client, replicas := r.Net, r.Client, r.Replicas
			tail := replicas[2]
			port := tail.FTManager().Port(svc)
			conns := tail.TCP().Conns()
			sort.Slice(conns, func(i, j int) bool { return conns[i].Remote().Key() < conns[j].Remote().Key() })
			if len(conns) != 3 {
				t.Fatalf("tail holds %d connections, want 3", len(conns))
			}
			// A chain message for a client whose SYN never arrives leaves a
			// placeholder without a connection on the tail.
			ghost := core.ChainMsg{Service: svc, Client: hydranet.Endpoint{Addr: client.Addr(), Port: 9}, SndNxt: 1, RcvNxt: 2}
			if err := replicas[0].UDP().SendTo(0, core.AckChannelPort,
				hydranet.UDPEndpoint{Addr: tail.Addr(), Port: core.AckChannelPort}, ghost.Marshal()); err != nil {
				t.Fatal(err)
			}
			net.RunFor(time.Second)
			if port.Conns() != 4 {
				t.Fatalf("tail manages %d connections, want 3 and a placeholder", port.Conns())
			}

			var sent []obs.Event
			net.Bus().Subscribe(func(e obs.Event) {
				if e.Node == tail.Name() {
					sent = append(sent, e)
				}
			}, obs.KindChainSend)

			port.SetUpstream(replicas[1].Addr()) // the predecessor it already has
			port.SetUpstream(0)
			net.RunFor(0) // to the end of the instant, where the messages leave
			if len(sent) != 0 {
				t.Fatalf("%d chain messages for an unchanged and a cleared upstream, want none", len(sent))
			}
			at := net.Now()
			port.SetUpstream(replicas[0].Addr())
			net.RunFor(0)
			if len(sent) != len(conns) {
				t.Fatalf("%d chain messages on a new upstream, want one per connection (%d)", len(sent), len(conns))
			}
			for i, c := range conns {
				e := sent[i]
				if e.Conn != c.Remote() || e.Seq != uint64(c.SndNxt()) || e.Ack != uint64(c.RcvNxt()) || e.Time != at {
					t.Errorf("message %d: conn %s seq %d ack %d at %v, want %s %d %d at %v",
						i, e.Conn, e.Seq, e.Ack, e.Time, c.Remote(), c.SndNxt(), c.RcvNxt(), at)
				}
			}
			before := replicas[0].FTManager().Stats().ChainMsgsReceived
			net.RunFor(time.Second)
			if got := replicas[0].FTManager().Stats().ChainMsgsReceived - before; got != uint64(len(conns)) {
				t.Errorf("new predecessor received %d chain messages, want %d", got, len(conns))
			}
		}},
	}})
}

// TestPromoteWalksTableAsItChanges: Promote pokes every connection in client
// order, and a poke may end connections — here the first segment it sends
// on the second makes an observer abort the first (already poked) and the
// fourth. Every record still in the table when its turn comes is poked once,
// in order.
func TestPromoteWalksTableAsItChanges(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 85})
	client := net.AddHost("client", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	s0 := net.AddHost("s0", hydranet.HostConfig{})
	s1 := net.AddHost("s1", hydranet.HostConfig{})
	for _, h := range []*hydranet.Host{client, s0, s1} {
		net.Link(h, rd.Host, hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond})
	}
	net.AutoRoute()
	if _, err := net.DeployFT(svc, rd, []*hydranet.Host{s0, s1}, hydranet.FTOptions{}, app.Echo); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	clients := make([]hydranet.Endpoint, 4)
	for i := range clients {
		c, err := client.Dial(svc)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c.Local()
	}
	net.RunFor(time.Second)
	port := s1.FTManager().Port(svc)
	if port.Conns() != len(clients) {
		t.Fatalf("backup manages %d connections, want %d", port.Conns(), len(clients))
	}
	var poked []hydranet.Endpoint
	aborting := false
	s1.TCP().SetTrace(func(dir string, local, remote tcp.Endpoint, seg *tcp.Segment) {
		if dir != "out" || aborting || seg.Flags.Has(tcp.FlagRST) {
			return
		}
		if len(poked) == 0 || poked[len(poked)-1] != remote {
			poked = append(poked, remote)
		}
		if remote == clients[1] {
			aborting = true
			for _, i := range []int{0, 3} {
				if c := s1.TCP().FindConn(local, clients[i]); c != nil {
					c.Abort()
				}
			}
			aborting = false
		}
	})
	port.Promote()
	if want := clients[:3]; !slices.Equal(poked, want) {
		t.Errorf("Promote poked %v, want %v", poked, want)
	}
	if port.Conns() != 2 {
		t.Errorf("port manages %d connections after two aborts, want 2", port.Conns())
	}
}
