package obs

import (
	"encoding/json"
	"testing"
	"time"

	"hydranet/internal/inet"
)

// TestEventRendering pins the one text format of the event stream: an event
// of every kind, built from values the way its emit site builds it, against
// the line and the JSON object the pre-typed emit sites (which formatted
// Service, Conn and Detail themselves) produced for it. Text is String
// without the 24-column time-and-node prefix. JSON survives a round trip
// byte for byte, which is what lets hydrascope re-export an audit.
func TestEventRendering(t *testing.T) {
	var (
		at  = 1012781 * time.Microsecond
		svc = inet.Endpoint{Addr: inet.AddrFrom4(192, 20, 225, 20), Port: 80}
		cli = inet.Endpoint{Addr: inet.AddrFrom4(10, 1, 0, 1), Port: 49153}
		s0  = inet.AddrFrom4(10, 2, 0, 1)
		s1  = inet.AddrFrom4(10, 3, 0, 1)
	)
	rows := []struct {
		e    Event
		line string
		json string
	}{
		{Event{Time: at, Kind: KindPacketLoss, Node: "rd", Size: 1500, Peer: "s0"},
			"   1.012781s rd         packet-loss size=1500 →s0",
			`{"time":1012781000,"kind":"packet-loss","node":"rd","size":1500,"detail":"→s0"}`},
		{Event{Time: at, Kind: KindQueueDrop, Node: "client", Size: 552, Peer: "rd"},
			"   1.012781s client     queue-drop size=552 →rd",
			`{"time":1012781000,"kind":"queue-drop","node":"client","size":552,"detail":"→rd"}`},
		{Event{Time: at, Kind: KindMTUDrop, Node: "rd", Size: 1520, Count: 1500},
			"   1.012781s rd         mtu-drop size=1520 mtu 1500",
			`{"time":1012781000,"kind":"mtu-drop","node":"rd","size":1520,"detail":"mtu 1500"}`},
		{Event{Time: at, Kind: KindNodeCrash, Node: "s0"},
			"   1.012781s s0         node-crash",
			`{"time":1012781000,"kind":"node-crash","node":"s0"}`},
		{Event{Time: at, Kind: KindNodeRestart, Node: "s0"},
			"   1.012781s s0         node-restart",
			`{"time":1012781000,"kind":"node-restart","node":"s0"}`},
		{Event{Time: at, Kind: KindRetransmit, Node: "client", Conn: svc, Seq: 3388865230},
			"   1.012781s client     retransmit conn=192.20.225.20:80 seq=3388865230",
			`{"time":1012781000,"kind":"retransmit","node":"client","conn":"192.20.225.20:80","seq":3388865230}`},
		{Event{Time: at, Kind: KindRTO, Node: "client", Conn: svc, Seq: 3388865230, Count: 2},
			"   1.012781s client     rto conn=192.20.225.20:80 seq=3388865230 attempt 2",
			`{"time":1012781000,"kind":"rto","node":"client","conn":"192.20.225.20:80","seq":3388865230,"detail":"attempt 2"}`},
		{Event{Time: at, Kind: KindFastRetransmit, Node: "client", Conn: svc, Seq: 3388865230},
			"   1.012781s client     fast-retransmit conn=192.20.225.20:80 seq=3388865230",
			`{"time":1012781000,"kind":"fast-retransmit","node":"client","conn":"192.20.225.20:80","seq":3388865230}`},
		{Event{Time: at, Kind: KindDeposit, Node: "s1", Service: svc, Conn: cli, Seq: 3388866690, Size: 1460},
			"   1.012781s s1         deposit svc=192.20.225.20:80 conn=10.1.0.1:49153 seq=3388866690 size=1460",
			`{"time":1012781000,"kind":"deposit","node":"s1","service":"192.20.225.20:80","conn":"10.1.0.1:49153","seq":3388866690,"size":1460}`},
		{Event{Time: at, Kind: KindAckProgress, Node: "client", Service: cli, Conn: svc, Seq: 3388866690, Size: 1460},
			"   1.012781s client     ack-progress svc=10.1.0.1:49153 conn=192.20.225.20:80 seq=3388866690 size=1460",
			`{"time":1012781000,"kind":"ack-progress","node":"client","service":"10.1.0.1:49153","conn":"192.20.225.20:80","seq":3388866690,"size":1460}`},
		{Event{Time: at, Kind: KindMulticast, Node: "rd", Service: svc, Conn: cli, Seq: 3388865230, Size: 3},
			"   1.012781s rd         multicast svc=192.20.225.20:80 conn=10.1.0.1:49153 seq=3388865230 size=3",
			`{"time":1012781000,"kind":"multicast","node":"rd","service":"192.20.225.20:80","conn":"10.1.0.1:49153","seq":3388865230,"size":3}`},
		{Event{Time: at, Kind: KindRedirect, Node: "rd", Service: svc, Host: s0},
			"   1.012781s rd         redirect svc=192.20.225.20:80 →10.2.0.1",
			`{"time":1012781000,"kind":"redirect","node":"rd","service":"192.20.225.20:80","detail":"→10.2.0.1"}`},
		{Event{Time: at, Kind: KindTunnelError, Node: "rd", Host: s0, Cause: "ipv4: no route to host"},
			"   1.012781s rd         tunnel-error →10.2.0.1: ipv4: no route to host",
			`{"time":1012781000,"kind":"tunnel-error","node":"rd","detail":"→10.2.0.1: ipv4: no route to host"}`},
		{Event{Time: at, Kind: KindChainSend, Node: "s2", Service: svc, Conn: cli, Seq: 159822578, Ack: 3388866690},
			"   1.012781s s2         chain-send svc=192.20.225.20:80 conn=10.1.0.1:49153 seq=159822578 ack=3388866690",
			`{"time":1012781000,"kind":"chain-send","node":"s2","service":"192.20.225.20:80","conn":"10.1.0.1:49153","seq":159822578,"ack":3388866690}`},
		{Event{Time: at, Kind: KindChainRecv, Node: "s1", Service: svc, Conn: cli, Seq: 159822578, Ack: 3388866690},
			"   1.012781s s1         chain-recv svc=192.20.225.20:80 conn=10.1.0.1:49153 seq=159822578 ack=3388866690",
			`{"time":1012781000,"kind":"chain-recv","node":"s1","service":"192.20.225.20:80","conn":"10.1.0.1:49153","seq":159822578,"ack":3388866690}`},
		{Event{Time: at, Kind: KindSuspicion, Node: "s1", Service: svc, Count: 3},
			"   1.012781s s1         suspicion svc=192.20.225.20:80 after 3 retransmissions",
			`{"time":1012781000,"kind":"suspicion","node":"s1","service":"192.20.225.20:80","detail":"after 3 retransmissions"}`},
		{Event{Time: at, Kind: KindPromotion, Node: "s1", Service: svc},
			"   1.012781s s1         promotion svc=192.20.225.20:80 0 conns",
			`{"time":1012781000,"kind":"promotion","node":"s1","service":"192.20.225.20:80","detail":"0 conns"}`},
		{Event{Time: at, Kind: KindDemotion, Node: "s0", Service: svc},
			"   1.012781s s0         demotion svc=192.20.225.20:80",
			`{"time":1012781000,"kind":"demotion","node":"s0","service":"192.20.225.20:80"}`},
		{Event{Time: at, Kind: KindRegistration, Node: "rd", Service: svc, Host: s0, Primary: true},
			"   1.012781s rd         registration svc=192.20.225.20:80 10.2.0.1 as primary",
			`{"time":1012781000,"kind":"registration","node":"rd","service":"192.20.225.20:80","detail":"10.2.0.1 as primary"}`},
		{Event{Time: at, Kind: KindRegistration, Node: "rd", Service: svc, Host: s1},
			"   1.012781s rd         registration svc=192.20.225.20:80 10.3.0.1 as backup",
			`{"time":1012781000,"kind":"registration","node":"rd","service":"192.20.225.20:80","detail":"10.3.0.1 as backup"}`},
		{Event{Time: at, Kind: KindReconfig, Node: "rd", Service: svc, Cause: "failed", Hosts: []inet.Addr{s0, s1}},
			"   1.012781s rd         reconfig svc=192.20.225.20:80 failed [10.2.0.1 10.3.0.1]",
			`{"time":1012781000,"kind":"reconfig","node":"rd","service":"192.20.225.20:80","detail":"failed [10.2.0.1 10.3.0.1]"}`},
		{Event{Time: at, Kind: KindRecommission, Node: "s0", Service: svc},
			"   1.012781s s0         recommission svc=192.20.225.20:80",
			`{"time":1012781000,"kind":"recommission","node":"s0","service":"192.20.225.20:80"}`},
		{Event{Time: at, Kind: KindClientDeliver, Node: "client", Size: 8192},
			"   1.012781s client     client-deliver size=8192",
			`{"time":1012781000,"kind":"client-deliver","node":"client","size":8192}`},
	}
	seen := map[Kind]bool{}
	for _, r := range rows {
		seen[r.e.Kind] = true
		if got := r.e.String(); got != r.line {
			t.Errorf("%s String:\n got %q\nwant %q", r.e.Kind, got, r.line)
		}
		if got := r.e.Text(); got != r.line[24:] {
			t.Errorf("%s Text:\n got %q\nwant %q", r.e.Kind, got, r.line[24:])
		}
		first, err := json.Marshal(r.e)
		if err != nil || string(first) != r.json {
			t.Errorf("%s JSON (%v):\n got %s\nwant %s", r.e.Kind, err, first, r.json)
		}
		var back Event
		if err := json.Unmarshal(first, &back); err != nil {
			t.Errorf("%s: %v", r.e.Kind, err)
			continue
		}
		if back.Service != r.e.Service || back.Conn != r.e.Conn {
			t.Errorf("%s endpoints read back as %v %v", r.e.Kind, back.Service, back.Conn)
		}
		if again, err := json.Marshal(back); err != nil || string(again) != r.json {
			t.Errorf("%s JSON after a round trip (%v):\n got %s\nwant %s", r.e.Kind, err, again, r.json)
		}
		if got := back.String(); got != r.line {
			t.Errorf("%s String after a round trip:\n got %q\nwant %q", r.e.Kind, got, r.line)
		}
	}
	for _, k := range Kinds() {
		if !seen[k] {
			t.Errorf("no row renders a %s event", k)
		}
	}
}
