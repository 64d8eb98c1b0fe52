package hydranet_test

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"hydranet"
	"hydranet/internal/app"
)

// Example_failover deploys a fault-tolerant echo service, kills the primary
// mid-conversation, and shows the client's connection surviving. Because
// the simulator is deterministic, this output is stable.
func Example_failover() {
	net := hydranet.New(hydranet.Config{Seed: 1})
	client := net.AddHost("client", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	s0 := net.AddHost("s0", hydranet.HostConfig{})
	s1 := net.AddHost("s1", hydranet.HostConfig{})
	link := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	for _, h := range []*hydranet.Host{client, s0, s1} {
		net.Link(h, rd.Host, link)
	}
	net.AutoRoute()

	svc := hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.20"), Port: 7}
	ftsvc, err := net.DeployFT(svc, rd, []*hydranet.Host{s0, s1},
		hydranet.FTOptions{}, func(c *hydranet.Conn) { app.Echo(c) })
	if err != nil {
		fmt.Println("deploy:", err)
		return
	}
	net.Settle()

	conn, err := client.Dial(svc)
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	var echoed []byte
	app.Collect(conn, &echoed)
	conn.OnConnected(func() { conn.Write([]byte("before ")) })
	net.RunFor(2 * time.Second)

	dead := ftsvc.CrashPrimary()
	conn.Write([]byte("and after the crash"))
	net.RunFor(time.Minute)

	fmt.Printf("crashed: %s\n", dead.Name())
	fmt.Printf("echoed:  %q\n", echoed)
	fmt.Printf("state:   %v\n", conn.State())
	// Output:
	// crashed: s0
	// echoed:  "before and after the crash"
	// state:   ESTABLISHED
}

// get fetches "/" from ep over a new connection from h, with the mini-HTTP
// protocol of app.HTTPServer, and prints the reply.
func get(net *hydranet.Net, h *hydranet.Host, ep hydranet.Endpoint) {
	conn, err := h.DialEndpoint(ep)
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	app.HTTPGet(conn, "/", func(status int, body []byte, ok bool) {
		fmt.Printf("%s GET %s/: %d %s\n", h.Name(), ep, status, body)
	})
	net.RunFor(3 * time.Second)
}

// serve binds the mini-HTTP page "/" to addr:port on h.
func serve(h *hydranet.Host, addr hydranet.Addr, port uint16, page string) error {
	l, err := h.Listen(addr, port)
	if err != nil {
		return err
	}
	l.SetAcceptFunc(app.HTTPServer(map[string]string{"/": page}))
	return nil
}

// broadcast returns a replica's accept handler for a live stream: frame(0)
// … frame(n-1), one every interval, then a close. Frames wait in pending
// while the send buffer is full, so every replica writes the same stream.
func broadcast(net *hydranet.Net, n int, interval time.Duration, frame func(int) []byte) func(*hydranet.Conn) {
	return func(c *hydranet.Conn) {
		var pending []byte
		next := 0
		flush := func() {
			for len(pending) > 0 {
				k := c.Write(pending)
				if k == 0 {
					return
				}
				pending = pending[k:]
			}
			if next == n {
				c.Close()
			}
		}
		var tick func()
		tick = func() {
			if next < n {
				pending = append(pending, frame(next)...)
				next++
				net.Scheduler().After(interval, tick)
			}
			flush()
		}
		c.OnWritable(flush)
		tick()
	}
}

// Example_webfarm reproduces the paper's Figure 2: scaling by global
// IP-address replication. The origin host 192.20.225.20 runs a web service
// (port 80) and a telnet service (port 23). The web service is replicated
// onto a host server near the clients (metric 1) and onto a far one
// (metric 5). The redirector tunnels port 80 to the nearest replica; port
// 23 has no table entry and passes through to the origin untouched. Neither
// the clients nor the origin's telnet service know of the replication.
func Example_webfarm() {
	net := hydranet.New(hydranet.Config{Seed: 2})
	clientA := net.AddHost("clientA", hydranet.HostConfig{})
	clientB := net.AddHost("clientB", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	near := net.AddHost("hostserver", hydranet.HostConfig{})
	origin := net.AddHost("origin", hydranet.HostConfig{})
	far := net.AddHost("far", hydranet.HostConfig{})
	lan := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	wan := hydranet.LinkConfig{Rate: 1_500_000, Delay: 40 * time.Millisecond}
	for _, h := range []*hydranet.Host{clientA, clientB, near} {
		net.Link(h, rd.Host, lan)
	}
	originAddr := hydranet.MustAddr("192.20.225.20")
	net.LinkAddr(origin, rd.Host, wan, originAddr, hydranet.MustAddr("192.20.225.1"))
	net.Link(far, rd.Host, wan)
	net.AutoRoute()

	web := hydranet.Endpoint{Addr: originAddr, Port: 80}
	telnet := hydranet.Endpoint{Addr: originAddr, Port: 23}
	if err := serve(origin, originAddr, web.Port, "origin httpd"); err != nil {
		fmt.Println("listen:", err)
		return
	}
	if err := serve(origin, originAddr, telnet.Port, "origin telnetd"); err != nil {
		fmt.Println("listen:", err)
		return
	}
	if err := net.DeployScale(web, rd, []hydranet.ScaleTarget{{Host: near, Metric: 1}, {Host: far, Metric: 5}},
		app.HTTPServer(map[string]string{"/": "a_httpd replica"})); err != nil {
		fmt.Println("deploy:", err)
		return
	}
	net.Settle()

	get(net, clientA, web)
	get(net, clientB, telnet)
	st := rd.Table().Stats()
	fmt.Printf("redirector: %d tunnelled, %d passed through\n", st.Redirected, st.PassedThrough)
	for _, h := range []*hydranet.Host{near, far, origin} {
		fmt.Printf("%s: %d segments in\n", h.Name(), h.TCP().Stats().SegsIn)
	}
	// Output:
	// clientA GET 192.20.225.20:80/: 200 a_httpd replica
	// clientB GET 192.20.225.20:23/: 200 origin telnetd
	// redirector: 6 tunnelled, 16 passed through
	// hostserver: 6 segments in
	// far: 0 segments in
	// origin: 6 segments in
}

// Example_internet reproduces the paper's Figure 1: an internetwork with
// two ISPs, each routing its clients through its own redirector, the two
// redirectors mirroring each other's tables. www.northwest.com (port 80, off
// the southwest ISP) is replicated for scaling onto a host server inside
// northeast.net, so northeastern clients are served locally.
// audio.south.com (port 554) is fault-tolerant on two hosts; its primary
// dies mid-broadcast and both ISPs' listeners keep their streams.
func Example_internet() {
	net := hydranet.New(hydranet.Config{Seed: 7})
	rdSW := net.AddRedirector("rd-southwest", hydranet.HostConfig{})
	rdNE := net.AddRedirector("rd-northeast", hydranet.HostConfig{})
	wan := hydranet.LinkConfig{Rate: 45_000_000, Delay: 30 * time.Millisecond} // a T3
	lan := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	net.Link(rdSW.Host, rdNE.Host, wan)
	clientSW := net.AddHost("client-sw", hydranet.HostConfig{})
	audio0 := net.AddHost("audio-s0", hydranet.HostConfig{})
	net.Link(clientSW, rdSW.Host, lan)
	net.Link(audio0, rdSW.Host, lan)
	clientNE := net.AddHost("client-ne", hydranet.HostConfig{})
	hostServer := net.AddHost("hostserver-ne", hydranet.HostConfig{})
	audio1 := net.AddHost("audio-s1", hydranet.HostConfig{})
	for _, h := range []*hydranet.Host{clientNE, hostServer, audio1} {
		net.Link(h, rdNE.Host, lan)
	}
	origin := net.AddHost("www-origin", hydranet.HostConfig{})
	webAddr := hydranet.MustAddr("192.20.225.20")
	net.LinkAddr(origin, rdSW.Host, wan, webAddr, hydranet.MustAddr("192.20.225.1"))
	net.AutoRoute()
	rdSW.Mirror(rdNE)
	rdNE.Mirror(rdSW)

	// The web replica registers with the northeastern redirector only.
	web := hydranet.ServiceID{Addr: webAddr, Port: 80}
	if err := serve(origin, webAddr, web.Port, "from the origin host"); err != nil {
		fmt.Println("listen:", err)
		return
	}
	if err := net.DeployScale(web, rdNE, []hydranet.ScaleTarget{{Host: hostServer, Metric: 1}},
		app.HTTPServer(map[string]string{"/": "from the northeast host server"})); err != nil {
		fmt.Println("deploy:", err)
		return
	}
	const frames = 120
	frame := func(i int) []byte { return []byte(fmt.Sprintf("frame-%03d;", i)) }
	audioSvc := hydranet.ServiceID{Addr: hydranet.MustAddr("199.77.0.5"), Port: 554}
	audio, err := net.DeployFT(audioSvc, rdSW, []*hydranet.Host{audio0, audio1},
		hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: 2}},
		broadcast(net, frames, 50*time.Millisecond, frame))
	if err != nil {
		fmt.Println("deploy:", err)
		return
	}
	net.Settle()

	get(net, clientSW, web)
	get(net, clientNE, web)

	listeners := []*hydranet.Host{clientSW, clientNE}
	streams := make([][]byte, len(listeners))
	for i, h := range listeners {
		conn, err := h.Dial(audioSvc)
		if err != nil {
			fmt.Println("dial:", err)
			return
		}
		app.Collect(conn, &streams[i])
	}
	net.RunFor(2 * time.Second)
	fmt.Printf("t=%v: audio primary %s crashed\n", net.Now(), audio.CrashPrimary().Name())
	net.RunFor(time.Minute)

	var want []byte
	for i := 0; i < frames; i++ {
		want = append(want, frame(i)...)
	}
	for i, h := range listeners {
		fmt.Printf("%s: %d/%d frames, gapless %v\n", h.Name(),
			bytes.Count(streams[i], []byte(";")), frames, bytes.Equal(streams[i], want))
	}
	fmt.Println("surviving audio chain:", audio.Chain())
	// Output:
	// client-sw GET 192.20.225.20:80/: 200 from the origin host
	// client-ne GET 192.20.225.20:80/: 200 from the northeast host server
	// t=9s: audio primary audio-s0 crashed
	// client-sw: 120/120 frames, gapless true
	// client-ne: 120/120 frames, gapless true
	// surviving audio chain: [10.6.0.1]
}

// Example_mediastream is the paper's motivating live broadcast: "the video
// service serving potentially many thousands of clients with live action
// must guarantee uninterrupted broadcast". Every replica runs the same
// frame source, and the backups produce the identical stream in lockstep,
// held back by the acknowledgment channel. When the primary dies
// mid-broadcast, the promoted backup resumes every viewer's stream exactly
// where it stopped: no viewer reconnects, no frame is lost or duplicated.
func Example_mediastream() {
	const frameSize = 1316 // a handful of MPEG-TS cells
	const frames = 250     // 10 s of video at 25 frames/s
	frame := func(i int) []byte {
		b := make([]byte, frameSize)
		b[0], b[1] = byte(i>>8), byte(i)
		for j := 2; j < frameSize; j++ {
			b[j] = byte(i * j)
		}
		return b
	}
	net := hydranet.New(hydranet.Config{Seed: 3})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	s0 := net.AddHost("s0", hydranet.HostConfig{})
	s1 := net.AddHost("s1", hydranet.HostConfig{})
	link := hydranet.LinkConfig{Rate: 10_000_000, Delay: 2 * time.Millisecond}
	net.Link(s0, rd.Host, link)
	net.Link(s1, rd.Host, link)
	viewers := make([]*hydranet.Host, 4)
	for i := range viewers {
		viewers[i] = net.AddHost(fmt.Sprintf("viewer%d", i), hydranet.HostConfig{})
		net.Link(viewers[i], rd.Host, link)
	}
	net.AutoRoute()

	svc := hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.20"), Port: 554}
	ftsvc, err := net.DeployFT(svc, rd, []*hydranet.Host{s0, s1},
		hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: 2}},
		broadcast(net, frames, 40*time.Millisecond, frame))
	if err != nil {
		fmt.Println("deploy:", err)
		return
	}
	net.Settle()
	fmt.Println("chain:", ftsvc.Chain())

	received := make([][]byte, len(viewers))
	for i, h := range viewers {
		conn, err := h.Dial(svc)
		if err != nil {
			fmt.Println("dial:", err)
			return
		}
		app.Collect(conn, &received[i])
	}
	net.RunFor(4 * time.Second)
	fmt.Printf("t=%v: primary %s crashed, viewers have %d frames\n",
		net.Now(), ftsvc.CrashPrimary().Name(), len(received[0])/frameSize)
	net.RunFor(90 * time.Second)

	fmt.Println("chain:", ftsvc.Chain())
	for i, h := range viewers {
		corrupt, gaps, next := 0, 0, 0
		for f := received[i]; len(f) >= frameSize; f = f[frameSize:] {
			idx := int(f[0])<<8 | int(f[1])
			if idx != next {
				gaps++
			}
			if !bytes.Equal(f[:frameSize], frame(idx)) {
				corrupt++
			}
			next = idx + 1
		}
		fmt.Printf("%s: %d/%d bytes, %d corrupt frames, %d gaps\n",
			h.Name(), len(received[i]), frames*frameSize, corrupt, gaps)
	}
	// Output:
	// chain: [10.1.0.1 10.2.0.1]
	// t=5s: primary s0 crashed, viewers have 100 frames
	// chain: [10.2.0.1]
	// viewer0: 329000/329000 bytes, 0 corrupt frames, 0 gaps
	// viewer1: 329000/329000 bytes, 0 corrupt frames, 0 gaps
	// viewer2: 329000/329000 bytes, 0 corrupt frames, 0 gaps
	// viewer3: 329000/329000 bytes, 0 corrupt frames, 0 gaps
}

// broker is a replica of a transaction service with per-session state
// (the paper: "service interruptions for an on-line brokerage firm may have
// very serious effects", and plain redirection is not enough because the
// server holds state). It speaks a line protocol, BUY <qty> <symbol> |
// SELL <qty> <symbol> | BALANCE, and confirms each order with the fill and
// the running account. Every replica runs the same deterministic logic on
// the same client bytes, so each backup's account is kept hot.
func broker(c *hydranet.Conn) {
	cash, positions := 10_000, map[string]int{}
	// A symbol's quote is fixed, so every replica fills alike.
	price := func(sym string) int {
		p := 10
		for _, r := range sym {
			p += int(r) % 7
		}
		return p
	}
	var in, out []byte
	buf := make([]byte, 2048)
	flush := func() {
		for len(out) > 0 {
			n := c.Write(out)
			if n == 0 {
				return
			}
			out = out[n:]
		}
	}
	execute := func(line string) string {
		f := strings.Fields(line)
		switch {
		case len(f) == 3 && (f[0] == "BUY" || f[0] == "SELL"):
			qty := 0
			fmt.Sscanf(f[1], "%d", &qty)
			sym := f[2]
			cost := qty * price(sym)
			if f[0] == "SELL" {
				qty, cost = -qty, -cost
			}
			if cash-cost < 0 || positions[sym]+qty < 0 {
				return fmt.Sprintf("REJECTED %s (insufficient funds or shares)", line)
			}
			cash -= cost
			positions[sym] += qty
			return fmt.Sprintf("FILLED %s @ %d | cash=%d %s=%d", line, price(sym), cash, sym, positions[sym])
		case len(f) == 1 && f[0] == "BALANCE":
			return fmt.Sprintf("BALANCE cash=%d positions=%v", cash, positions)
		}
		return fmt.Sprintf("ERROR unparseable order %q", line)
	}
	c.OnReadable(func() {
		for n := c.Read(buf); n > 0; n = c.Read(buf) {
			in = append(in, buf[:n]...)
		}
		for i := bytes.IndexByte(in, '\n'); i >= 0; i = bytes.IndexByte(in, '\n') {
			if line := strings.TrimSpace(string(in[:i])); line != "" {
				out = append(out, execute(line)+"\n"...)
			}
			in = in[i+1:]
		}
		flush()
		if c.PeerClosed() {
			c.Close()
		}
	})
	c.OnWritable(flush)
}

// Example_brokerage runs a trading session against three replicas of
// broker and kills the primary between two orders: the confirmations after
// the crash still reflect the trades made before it.
func Example_brokerage() {
	net := hydranet.New(hydranet.Config{Seed: 4})
	trader := net.AddHost("trader", hydranet.HostConfig{})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	s0 := net.AddHost("s0", hydranet.HostConfig{})
	s1 := net.AddHost("s1", hydranet.HostConfig{})
	s2 := net.AddHost("s2", hydranet.HostConfig{})
	link := hydranet.LinkConfig{Rate: 10_000_000, Delay: 2 * time.Millisecond}
	for _, h := range []*hydranet.Host{trader, s0, s1, s2} {
		net.Link(h, rd.Host, link)
	}
	net.AutoRoute()

	svc := hydranet.ServiceID{Addr: hydranet.MustAddr("192.20.225.20"), Port: 7777}
	ftsvc, err := net.DeployFT(svc, rd, []*hydranet.Host{s0, s1, s2},
		hydranet.FTOptions{Detector: hydranet.DetectorParams{RetransmitThreshold: 2}}, broker)
	if err != nil {
		fmt.Println("deploy:", err)
		return
	}
	net.Settle()
	fmt.Println("chain:", ftsvc.Chain())

	conn, err := trader.Dial(svc)
	if err != nil {
		fmt.Println("dial:", err)
		return
	}
	var transcript []byte
	app.Collect(conn, &transcript)
	send := func(order string) {
		conn.Write([]byte(order + "\n"))
		fmt.Println(">>", order)
	}
	conn.OnConnected(func() {
		send("BUY 100 ACME")
		send("BUY 50 INITECH")
	})
	net.RunFor(2 * time.Second)

	fmt.Println("primary crashed:", ftsvc.CrashPrimary().Name())
	send("SELL 30 ACME")
	send("BALANCE")
	net.RunFor(time.Minute)

	for _, line := range strings.Split(strings.TrimSpace(string(transcript)), "\n") {
		fmt.Println("<<", line)
	}
	fmt.Printf("connection: %v, chain: %v\n", conn.State(), ftsvc.Chain())
	// Output:
	// chain: [10.2.0.1 10.3.0.1 10.4.0.1]
	// >> BUY 100 ACME
	// >> BUY 50 INITECH
	// primary crashed: s0
	// >> SELL 30 ACME
	// >> BALANCE
	// << FILLED BUY 100 ACME @ 22 | cash=7800 ACME=100
	// << FILLED BUY 50 INITECH @ 29 | cash=6350 INITECH=50
	// << FILLED SELL 30 ACME @ 22 | cash=7010 ACME=70
	// << BALANCE cash=7010 positions=map[ACME:70 INITECH:50]
	// connection: ESTABLISHED, chain: [10.3.0.1 10.4.0.1]
}
