package hydranet_test

import (
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/app"
)

// TestActiveCacheAgent reproduces the paper's Section 3 footnote: the host
// server runs "a scaled-down version of the service (for example an active
// cache) ... as agent of the server on the origin host". Requests from the
// local population are served from the cache; only the first miss crosses
// the WAN to the origin.
//
// The topology: clients — rd — hostserver(cache) ... WAN ... origin.
func TestActiveCacheAgent(t *testing.T) {
	net := hydranet.New(hydranet.Config{Seed: 71})
	rd := net.AddRedirector("rd", hydranet.HostConfig{})
	hs := net.AddHost("hostserver", hydranet.HostConfig{})
	origin := net.AddHost("origin", hydranet.HostConfig{})
	lan := hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}
	wan := hydranet.LinkConfig{Rate: 1_000_000, Delay: 100 * time.Millisecond}
	var clients []*hydranet.Host
	for i := 0; i < 2; i++ {
		c := net.AddHost("client"+string(rune('0'+i)), hydranet.HostConfig{})
		clients = append(clients, c)
		net.Link(c, rd.Host, lan)
	}
	net.Link(hs, rd.Host, lan)
	net.LinkAddr(origin, rd.Host, wan,
		hydranet.MustAddr("192.20.225.20"), hydranet.MustAddr("192.20.225.1"))
	// A second origin address for agent fetch-back traffic: the host
	// server hosts the service's virtual address itself, so dialing
	// 192.20.225.20 from the host server loops back locally. Agents reach
	// the origin by a dedicated address, as a real cache hierarchy would.
	net.Link(origin, rd.Host, wan)
	net.AutoRoute()
	originAddr := hydranet.MustAddr("192.20.225.20")
	webSvc := hydranet.ServiceID{Addr: originAddr, Port: 80}

	// The real service on the origin host.
	pages := map[string]string{"/index.html": "<html>welcome to northwest.com</html>"}
	lst, err := origin.Listen(originAddr, 80)
	if err != nil {
		t.Fatal(err)
	}
	lst.SetAcceptFunc(app.HTTPServer(pages))

	// The active cache on the host server, registered as the (nearest)
	// scaling replica for the origin's port 80.
	// The agent reaches the origin by its dedicated fetch address: the
	// virtual address would resolve to the agent's own host server.
	fetchAddr := origin.IP().Addr(1)
	agent := app.NewCacheAgent(func() (*hydranet.Conn, error) {
		return hs.DialEndpoint(hydranet.Endpoint{Addr: fetchAddr, Port: 8080})
	})
	// The origin exposes the fetch port for its agents.
	back, err := origin.Listen(0, 8080)
	if err != nil {
		t.Fatal(err)
	}
	back.SetAcceptFunc(app.HTTPServer(pages))
	if err := net.DeployScale(webSvc, rd, []hydranet.ScaleTarget{{Host: hs, Metric: 1}},
		agent.Accept); err != nil {
		t.Fatal(err)
	}
	net.Settle()

	get := func(c *hydranet.Host, path string) (int, string, time.Duration) {
		conn, err := c.Dial(webSvc)
		if err != nil {
			t.Fatal(err)
		}
		start := net.Now()
		var status int
		var body []byte
		var rtt time.Duration
		app.HTTPGet(conn, path, func(s int, b []byte, ok bool) {
			if !ok {
				t.Fatal("request failed")
			}
			status, body, rtt = s, b, net.Now()-start
		})
		net.RunFor(5 * time.Second)
		return status, string(body), rtt
	}

	s1, b1, missRTT := get(clients[0], "/index.html")
	s2, b2, hitRTT := get(clients[1], "/index.html")
	if s1 != 200 || s2 != 200 || b1 != pages["/index.html"] || b2 != b1 {
		t.Fatalf("responses: %d %q / %d %q", s1, b1, s2, b2)
	}
	hits, misses := agent.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want 1/1", hits, misses)
	}
	// The hit never crosses the WAN: it must be far faster than the miss.
	if hitRTT >= missRTT/2 {
		t.Errorf("hit RTT %v not much faster than miss RTT %v", hitRTT, missRTT)
	}
	// 404s are cached too (negative caching of the agent's response).
	s3, _, _ := get(clients[0], "/missing.html")
	if s3 != 404 {
		t.Fatalf("status for missing page = %d", s3)
	}
	// Every exchange closes at both ends: nothing is left once TIME-WAIT
	// (30 s) has passed.
	net.RunFor(time.Minute)
	for _, h := range append(clients, hs, origin) {
		if n := h.TCP().NumConns(); n != 0 {
			t.Errorf("%s: %d connections left", h.Name(), n)
		}
	}
}
