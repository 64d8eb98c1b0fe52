package main

// The layer ledger: batches of direct calls into each layer's public
// functions, one harness span per batch, reported as <op>.ns_op and
// <op>.allocs_op. Unlike workloads.go this file calls the layers below the
// facade on purpose — it is the one place a change to a layer's signature
// has to be followed in the benchmark.

import (
	"runtime"
	"sort"
	"time"

	"hydranet"
	"hydranet/internal/core"
	"hydranet/internal/frame"
	"hydranet/internal/ipv4"
	"hydranet/internal/netsim"
	"hydranet/internal/redirector"
	"hydranet/internal/rmp"
	"hydranet/internal/sim"
	"hydranet/internal/tcp"
	"hydranet/internal/ttcp"
	"hydranet/internal/udp"
)

// ledgerOp prepares a layer and returns the function that performs n
// operations on it. units, when set, replaces n as the divisor (an
// operation count only the run itself knows, such as segments sent).
type ledgerOp struct {
	name  string
	n     int
	build func() (batch func(n int), units func() int)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

type countingHandler struct{ frames int }

func (h *countingHandler) HandleFrame(int, []byte) { h.frames++ }

var fastLink = netsim.LinkConfig{Rate: 100_000_000, Delay: 10 * time.Microsecond}

// threeNodes is a — r — b with r forwarding between 10.1.0.0/24 and
// 10.2.0.0/24; frames reaching a or b are counted and dropped.
func threeNodes() (s *sim.Scheduler, r *ipv4.Stack, a, b ipv4.Addr) {
	s = sim.NewScheduler(1)
	fab := netsim.New(s)
	na, nr, nb := fab.AddNode(netsim.NodeConfig{Name: "a"}), fab.AddNode(netsim.NodeConfig{Name: "r"}), fab.AddNode(netsim.NodeConfig{Name: "b"})
	fab.Connect(na, nr, fastLink)
	fab.Connect(nr, nb, fastLink)
	na.SetHandler(&countingHandler{})
	nb.SetHandler(&countingHandler{})
	r = ipv4.NewStack(nr, s)
	r.SetForwarding(true)
	a, b = ipv4.AddrFrom4(10, 1, 0, 1), ipv4.AddrFrom4(10, 2, 0, 2)
	r.SetAddr(0, ipv4.AddrFrom4(10, 1, 0, 2))
	r.SetAddr(1, ipv4.AddrFrom4(10, 2, 0, 1))
	r.Routes().Add(ipv4.Route{Dst: ipv4.Prefix{Addr: a, Bits: 24}, Ifindex: 0})
	r.Routes().Add(ipv4.Route{Dst: ipv4.Prefix{Addr: b, Bits: 24}, Ifindex: 1})
	return s, r, a, b
}

func tcpFrame(src, dst ipv4.Addr, dstPort uint16, payload int) []byte {
	seg := &tcp.Segment{SrcPort: 40000, DstPort: dstPort, Seq: 1, Ack: 1, Flags: tcp.FlagACK, Window: 8192, Payload: make([]byte, payload)}
	p := &ipv4.Packet{Header: ipv4.Header{TTL: 64, Proto: ipv4.ProtoTCP, Src: src, Dst: dst, ID: 7}, Payload: seg.Marshal(src, dst)}
	wire, err := p.Marshal()
	if err != nil {
		panic(err)
	}
	return wire
}

func linkRoundTrip(size int) func() (func(int), func() int) {
	return func() (func(int), func() int) {
		s := sim.NewScheduler(1)
		fab := netsim.New(s)
		a, b := fab.AddNode(netsim.NodeConfig{Name: "a"}), fab.AddNode(netsim.NodeConfig{Name: "b"})
		fab.Connect(a, b, fastLink)
		h := &countingHandler{}
		b.SetHandler(h)
		data := make([]byte, size)
		return func(n int) {
			for i := 0; i < n; i++ {
				a.SendFrame(0, a.Pool().GetCopy(data))
				s.Run()
			}
			sink += h.frames
		}, nil
	}
}

var ledgerOps = []ledgerOp{
	{"sim.push_pop", 400_000, func() (func(int), func() int) {
		s, fn := sim.NewScheduler(1), func() {}
		return func(n int) {
			for i := 0; i < n; i++ {
				s.At(s.Now()+time.Microsecond, fn)
				s.Step()
			}
		}, nil
	}},
	{"sim.cancel", 400_000, func() (func(int), func() int) {
		s, fn := sim.NewScheduler(1), func() {}
		return func(n int) {
			for i := 0; i < n; i++ {
				e := s.At(s.Now()+time.Second, fn)
				e.Cancel()
				if i%64 == 0 { // keep the clock moving so dead entries are compacted
					s.After(0, fn)
					s.Step()
				}
			}
		}, nil
	}},
	{"sim.timer_reset", 400_000, func() (func(int), func() int) {
		s := sim.NewScheduler(1)
		fn := func() {}
		t := sim.NewTimer(s, fn)
		return func(n int) {
			for i := 0; i < n; i++ {
				t.Reset(time.Second)
				if i%64 == 0 {
					s.After(0, fn)
					s.Step()
				}
			}
		}, nil
	}},
	{"frame.get_release", 1_000_000, func() (func(int), func() int) {
		p := frame.NewPool()
		return func(n int) {
			for i := 0; i < n; i++ {
				b := p.Get(1500)
				sink += b.Len()
				b.Release()
			}
		}, nil
	}},
	{"netsim.link_roundtrip_64", 100_000, linkRoundTrip(64)},
	{"netsim.link_roundtrip_1500", 100_000, linkRoundTrip(1500)},
	{"ipv4.unmarshal", 400_000, func() (func(int), func() int) {
		wire := tcpFrame(1, 2, 5001, 1024)
		return func(n int) {
			for i := 0; i < n; i++ {
				p, err := ipv4.Unmarshal(wire)
				if err != nil {
					panic(err)
				}
				sink += int(p.TTL)
			}
		}, nil
	}},
	// HandleFrame on a forwarding stack, through to the next hop's handler:
	// parse, route, copy into a pooled frame, one link crossing.
	{"ipv4.forward", 100_000, func() (func(int), func() int) {
		s, r, a, b := threeNodes()
		wire := tcpFrame(a, b, 5001, 64)
		return func(n int) {
			for i := 0; i < n; i++ {
				r.HandleFrame(0, wire)
				s.Run()
			}
			sink += int(r.Stats().Forwarded)
		}, nil
	}},
	{"ipv4.encap", 100_000, func() (func(int), func() int) {
		s, r, a, b := threeNodes()
		inner, err := ipv4.Unmarshal(tcpFrame(a, ipv4.AddrFrom4(192, 20, 225, 20), 5001, 64))
		if err != nil {
			panic(err)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := r.SendEncap(inner, b); err != nil {
					panic(err)
				}
				s.Run()
			}
		}, nil
	}},
	{"ipv4.checksum_1k", 1_000_000, func() (func(int), func() int) {
		data := make([]byte, 1024)
		for i := range data {
			data[i] = byte(i)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				sink += int(ipv4.Checksum(data))
			}
		}, nil
	}},
	{"udp.marshal_unmarshal", 400_000, func() (func(int), func() int) {
		payload := make([]byte, 22) // one acknowledgment-channel message
		return func(n int) {
			for i := 0; i < n; i++ {
				wire := udp.Marshal(1, 2, 5402, 5402, payload)
				_, _, p, err := udp.Unmarshal(1, 2, wire)
				if err != nil {
					panic(err)
				}
				sink += len(p)
			}
		}, nil
	}},
	{"tcp.seg_marshal", 400_000, func() (func(int), func() int) {
		seg := &tcp.Segment{SrcPort: 40000, DstPort: 5001, Seq: 1, Ack: 1, Flags: tcp.FlagACK, Window: 8192, Payload: make([]byte, 1024)}
		return func(n int) {
			for i := 0; i < n; i++ {
				sink += len(seg.Marshal(1, 2))
			}
		}, nil
	}},
	{"tcp.seg_unmarshal", 400_000, func() (func(int), func() int) {
		seg := &tcp.Segment{SrcPort: 40000, DstPort: 5001, Seq: 1, Ack: 1, Flags: tcp.FlagACK, Window: 8192, Payload: make([]byte, 1024)}
		wire := seg.Marshal(1, 2)
		return func(n int) {
			for i := 0; i < n; i++ {
				s, err := tcp.UnmarshalSegment(1, 2, wire)
				if err != nil {
					panic(err)
				}
				sink += len(s.Payload)
			}
		}, nil
	}},
	// A two-host bulk transfer on cost-free machines and a fast link:
	// wall time per segment either stack handled, everything below TCP
	// included. n is the number of 1024-byte writes.
	{"tcp.bulk_per_seg", 50_000, func() (func(int), func() int) {
		var segs uint64
		return func(n int) {
				net := hydranet.New(hydranet.Config{Seed: 1})
				a, b := net.AddHost("a", hydranet.HostConfig{}), net.AddHost("b", hydranet.HostConfig{})
				net.Link(a, b, fastLink)
				net.AutoRoute()
				lst, err := b.Listen(0, 5001)
				if err != nil {
					panic(err)
				}
				lst.SetAcceptFunc(func(c *hydranet.Conn) { ttcp.Sink(c) })
				conn, err := a.DialEndpoint(hydranet.Endpoint{Addr: b.Addr(), Port: 5001})
				if err != nil {
					panic(err)
				}
				done := false
				ttcp.Transmit(a.Scheduler(), conn, ttcp.Params{BufLen: 1024, Count: n}, func(r ttcp.Result) {
					if r.Err != nil {
						panic(r.Err)
					}
					done = true
				})
				for !done {
					net.RunFor(time.Second)
				}
				segs = 0
				for _, h := range net.Snapshot().Hosts {
					segs += h.TCP.SegsIn
				}
			}, func() int {
				return int(segs)
			}
	}},
	{"core.chainmsg_marshal", 1_000_000, func() (func(int), func() int) {
		m := &core.ChainMsg{Service: core.ServiceID{Addr: 1, Port: 5001}, Client: tcp.Endpoint{Addr: 2, Port: 40000}, SndNxt: 100, RcvNxt: 200}
		return func(n int) {
			for i := 0; i < n; i++ {
				sink += len(m.Marshal())
			}
		}, nil
	}},
	{"core.chainmsg_unmarshal", 1_000_000, func() (func(int), func() int) {
		m := &core.ChainMsg{Service: core.ServiceID{Addr: 1, Port: 5001}, Client: tcp.Endpoint{Addr: 2, Port: 40000}, SndNxt: 100, RcvNxt: 200}
		wire := m.Marshal()
		return func(n int) {
			for i := 0; i < n; i++ {
				got, err := core.UnmarshalChainMsg(wire)
				if err != nil {
					panic(err)
				}
				sink += int(got.SndNxt)
			}
		}, nil
	}},
	// The redirector's forward hook with a two-replica FT entry: table
	// lookup and two tunnel copies, each through to its next hop.
	{"redirector.intercept_ft2", 100_000, func() (func(int), func() int) {
		s, r, a, b := threeNodes()
		rd := redirector.New(r)
		svc := ipv4.AddrFrom4(192, 20, 225, 20)
		rd.SetFTReplicas(redirector.ServiceKey{Addr: svc, Port: 5001}, b, []ipv4.Addr{ipv4.AddrFrom4(10, 2, 0, 3)})
		wire := tcpFrame(a, svc, 5001, 64)
		return func(n int) {
			for i := 0; i < n; i++ {
				r.HandleFrame(0, wire)
				s.Run()
			}
			if got := rd.Stats().MulticastCopies; got < 2*uint64(n) {
				panic("bench: redirector ledger batch did not multicast")
			}
		}, nil
	}},
	{"rmp.msg_roundtrip", 1_000_000, func() (func(int), func() int) {
		m := &rmp.Message{Type: rmp.MsgSuspect, Service: core.ServiceID{Addr: 1, Port: 5001}, Host: 3}
		return func(n int) {
			for i := 0; i < n; i++ {
				got, err := rmp.UnmarshalMessage(m.Marshal())
				if err != nil {
					panic(err)
				}
				sink += int(got.Host)
			}
		}, nil
	}},
}

// ledgerBatches is how many timed batches each op gets; the median batch
// is reported.
const ledgerBatches = 5

// runLedger times every op and returns <op>.ns_op and <op>.allocs_op.
// scale shrinks the batches for tests.
func runLedger(scale float64, spans *spanRecorder) map[string]float64 {
	out := map[string]float64{}
	for _, op := range ledgerOps {
		n := int(float64(op.n) * scale)
		if n < 100 {
			n = 100
		}
		batch, units := op.build()
		batch(n / 10) // warm pools and caches
		var ns, allocs []float64
		var m0, m1 runtime.MemStats
		for b := 0; b < ledgerBatches; b++ {
			end := spans.start("ledger " + op.name)
			runtime.ReadMemStats(&m0)
			start := time.Now()
			batch(n)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)
			end()
			div := float64(n)
			if units != nil {
				div = float64(units())
			}
			ns = append(ns, float64(elapsed.Nanoseconds())/div)
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/div)
		}
		sort.Float64s(ns)
		sort.Float64s(allocs)
		out[op.name+".ns_op"] = ns[ledgerBatches/2]
		out[op.name+".allocs_op"] = allocs[ledgerBatches/2]
	}
	return out
}
