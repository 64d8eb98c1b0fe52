// Package netsim models the physical network fabric: nodes with a shared
// CPU, and duplex links with finite rate, propagation delay, MTU, drop-tail
// queues, and optional random loss.
//
// Frames are opaque byte slices; the IP layer above is responsible for all
// header interpretation. Every cost in the model is charged in virtual time
// on the simulation scheduler, so a node with a slow CPU (the paper's 486
// redirector) becomes a bottleneck exactly as it would on the testbed.
package netsim

import (
	"fmt"
	"time"

	"hydranet/internal/frame"
	"hydranet/internal/obs"
	"hydranet/internal/sim"
)

// FrameHandler receives frames delivered to a node, tagged with the index
// of the interface they arrived on. The frame bytes belong to the fabric:
// they are valid only for the duration of the call, and anything retained
// afterwards must be copied (the underlying buffer is recycled as soon as
// HandleFrame returns).
type FrameHandler interface {
	HandleFrame(ifindex int, frame []byte)
}

// FrameTap observes every frame the fabric accepts for transmission, on
// every link and in both directions. It runs synchronously at the instant
// the frame clears the sender's transmit queue (post loss/queue-drop, so a
// tap sees exactly the frames that will reach the far end). The data slice
// aliases a pooled frame buffer owned by the fabric: it is valid only for
// the duration of the call, and a tap that retains bytes must copy them.
type FrameTap func(from, to *Node, data []byte)

// Network is a collection of nodes and links sharing one scheduler, one
// frame pool and one event bus.
type Network struct {
	sched  *sim.Scheduler
	bus    *obs.Bus
	pool   *frame.Pool
	tap    FrameTap
	evFree *frameEvent // fabric event records ready for use (see frameEvent)
}

// evSlabSize is how many event records one allocation holds: a fail-over
// scenario on a fresh network needs a few dozen before it starts recycling.
const evSlabSize = 32

// New returns an empty network driven by the given scheduler.
func New(sched *sim.Scheduler) *Network {
	return &Network{sched: sched, pool: frame.NewPool()}
}

// Pool returns the network's frame-buffer pool. Layers above the fabric
// allocate transmit buffers here and hand them to Node.SendFrame; the
// scheduler is single-threaded, so the pool is unsynchronized by design.
func (n *Network) Pool() *frame.Pool { return n.pool }

// SetBus attaches an observability event bus; the fabric emits frame-drop
// and crash/restart events on it. A nil bus (the default) disables all
// emission.
func (n *Network) SetBus(b *obs.Bus) { n.bus = b }

// SetFrameTap installs (or, with nil, removes) the network-wide frame tap.
// The disabled cost is a single pointer test on the link transmit path.
func (n *Network) SetFrameTap(t FrameTap) { n.tap = t }

// NodeConfig describes a node's processing characteristics.
type NodeConfig struct {
	// Name identifies the node in traces and errors.
	Name string
	// ProcDelay is the CPU cost charged per frame, on both transmit and
	// receive. The node's CPU is a serial resource: frames queue behind
	// each other, which is what makes slow hosts bottlenecks.
	ProcDelay time.Duration
	// ProcPerByte is an additional CPU cost per frame byte, modelling
	// copy and checksum costs that scale with packet size (dominant on
	// the paper's 486-class machines).
	ProcPerByte time.Duration
}

// AddNode creates a node in the network.
func (n *Network) AddNode(cfg NodeConfig) *Node { return n.InitNode(new(Node), cfg) }

// InitNode is AddNode for a Node embedded by value, which must not be copied
// afterwards.
func (n *Network) InitNode(nd *Node, cfg NodeConfig) *Node {
	*nd = Node{net: n, name: cfg.Name, procDelay: cfg.ProcDelay, procPerByte: cfg.ProcPerByte, alive: true}
	nd.ifaces = nd.ifaces0[:0]
	return nd
}

// LinkConfig describes one duplex link.
type LinkConfig struct {
	// Rate is the transmission rate in bits per second. Zero means
	// infinitely fast (no serialization delay).
	Rate int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// MTU is the maximum frame size in bytes. Larger frames are dropped;
	// the IP layer must fragment. Zero means 1500.
	MTU int
	// QueueBytes bounds the per-direction transmit backlog (drop-tail).
	// Zero means 64 KiB.
	QueueBytes int
	// Loss is the independent probability in [0,1] that a frame is lost.
	Loss float64
	// Jitter adds a uniformly random extra propagation delay in
	// [0, Jitter] per frame. Frames with different jitter can overtake
	// each other, producing out-of-order delivery.
	Jitter time.Duration
}

const (
	defaultMTU   = 1500
	defaultQueue = 64 * 1024
)

// Connect joins two nodes with a duplex link and returns it. Each endpoint
// gains a new interface; the interface indices are returned in node order.
func (n *Network) Connect(a, b *Node, cfg LinkConfig) *Link {
	if cfg.MTU == 0 {
		cfg.MTU = defaultMTU
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = defaultQueue
	}
	l := &Link{net: n, cfg: cfg}
	l.ends[0] = endpoint{node: a, ifindex: len(a.ifaces)}
	l.ends[1] = endpoint{node: b, ifindex: len(b.ifaces)}
	a.ifaces = append(a.ifaces, iface{link: l, side: 0})
	b.ifaces = append(b.ifaces, iface{link: l, side: 1})
	return l
}

// Node is a host or router with a serial CPU and a set of interfaces.
type Node struct {
	net         *Network
	name        string
	procDelay   time.Duration
	procPerByte time.Duration
	ifaces      []iface
	ifaces0     [4]iface // ifaces' backing while a node has at most four links
	handler     FrameHandler
	alive       bool
	cpuFree     time.Duration // virtual time the CPU becomes idle
	cpu         sim.Lane      // transmit and receive work queued on the CPU

	// Stats
	sent, received, dropped uint64
}

type iface struct {
	link *Link
	side int
}

// Name returns the node's configured name.
func (nd *Node) Name() string { return nd.name }

// Pool returns the network's frame pool, for layers that marshal directly
// into transmit buffers.
func (nd *Node) Pool() *frame.Pool { return nd.net.pool }

// Scheduler returns the scheduler driving the node's network.
func (nd *Node) Scheduler() *sim.Scheduler { return nd.net.sched }

// NumInterfaces returns how many links are attached.
func (nd *Node) NumInterfaces() int { return len(nd.ifaces) }

// SetHandler installs the frame sink (normally the node's IP stack).
func (nd *Node) SetHandler(h FrameHandler) { nd.handler = h }

// Alive reports whether the node is running.
func (nd *Node) Alive() bool { return nd.alive }

// Crash fail-stops the node: it silently discards all traffic and performs
// no further processing, matching the fail-stop model in the paper.
func (nd *Node) Crash() {
	nd.alive = false
	if b := nd.net.bus; b.Enabled(obs.KindNodeCrash) {
		b.Publish(obs.Event{Kind: obs.KindNodeCrash, Node: nd.name})
	}
}

// Restart brings a crashed node back (higher layers must re-register state).
func (nd *Node) Restart() {
	nd.alive = true
	if b := nd.net.bus; b.Enabled(obs.KindNodeRestart) {
		b.Publish(obs.Event{Kind: obs.KindNodeRestart, Node: nd.name})
	}
}

// SetProc changes the node's CPU cost model mid-run — the gray-failure
// injection knob: a large per-frame delay models a replica that is alive
// (it answers, eventually) but pathologically slow, the "degraded, not
// dead" case the paper's fail-stop detector cannot distinguish.
func (nd *Node) SetProc(procDelay, procPerByte time.Duration) {
	nd.procDelay = procDelay
	nd.procPerByte = procPerByte
}

// ProcBacklog reports how far the node's serial CPU is running behind
// frame arrival: the time until a frame delivered right now would actually
// be processed. Zero on an idle or keeping-up node; on a gray-failing one
// it grows with every queued frame. This is the host-local ingress-queue
// depth Net.Snapshot exports, even when the node looks alive from the
// network.
func (nd *Node) ProcBacklog() time.Duration {
	if b := nd.cpuFree - nd.net.sched.Now(); b > 0 {
		return b
	}
	return 0
}

// Stats returns cumulative frames sent, received and dropped at this node.
func (nd *Node) Stats() (sent, received, dropped uint64) {
	return nd.sent, nd.received, nd.dropped
}

// MTU returns the MTU of the link on interface ifindex.
func (nd *Node) MTU(ifindex int) int {
	return nd.ifaces[ifindex].link.cfg.MTU
}

// Peer returns the node on the far side of interface ifindex.
func (nd *Node) Peer(ifindex int) *Node {
	ifc := nd.ifaces[ifindex]
	return ifc.link.ends[1-ifc.side].node
}

// Send transmits a copy of frame out interface ifindex. The caller keeps
// ownership of the slice. This is the compatibility path; the zero-copy
// fast path is SendFrame.
func (nd *Node) Send(ifindex int, frame []byte) {
	if !nd.alive {
		return
	}
	fb := nd.net.pool.Get(len(frame))
	copy(fb.Bytes(), frame)
	nd.SendFrame(ifindex, fb)
}

// SendFrame transmits a pooled frame out interface ifindex, taking
// ownership of fb: the fabric guarantees exactly one Release on every
// outcome — delivery, MTU drop, queue drop, random loss, or a crashed
// node. The frame is charged the node's CPU cost, then the link's queueing,
// serialization and propagation delays.
func (nd *Node) SendFrame(ifindex int, fb *frame.Buf) {
	if !nd.alive {
		fb.Release()
		return
	}
	if ifindex < 0 || ifindex >= len(nd.ifaces) {
		fb.Release()
		panic(fmt.Sprintf("netsim: node %q has no interface %d", nd.name, ifindex))
	}
	ifc := nd.ifaces[ifindex]
	if fb.Len() > ifc.link.cfg.MTU {
		nd.dropped++
		if b := nd.net.bus; b.Enabled(obs.KindMTUDrop) {
			b.Publish(obs.Event{
				Kind: obs.KindMTUDrop, Node: nd.name, Size: fb.Len(),
				Count: ifc.link.cfg.MTU,
			})
		}
		fb.Release()
		return
	}
	nd.sent++
	ev := nd.net.getEvent(evTxReady, fb)
	ev.node, ev.link, ev.side = nd, ifc.link, ifc.side
	nd.cpu.AtHandler(nd.net.sched, nd.cpuDone(fb.Len()), ev)
}

// cpuDone charges the node's serial CPU the frame's processing cost (fixed
// plus per-byte) and returns the virtual time the work completes, which never
// decreases: the CPU's events wait in its lane. The event scheduled there
// always runs, even if the node crashed in the meantime: it carries a pooled
// frame and must get the chance to release it, so liveness checks belong in
// the event.
func (nd *Node) cpuDone(size int) time.Duration {
	start := nd.net.sched.Now()
	if nd.cpuFree > start {
		start = nd.cpuFree
	}
	nd.cpuFree = start + nd.procDelay + time.Duration(size)*nd.procPerByte
	return nd.cpuFree
}

// deliver is called when a frame arrives at this node. It owns fb, which is
// released after the handler returns (or on any drop path).
func (nd *Node) deliver(ifindex int, fb *frame.Buf) {
	if !nd.alive {
		fb.Release()
		return
	}
	ev := nd.net.getEvent(evRxReady, fb)
	ev.node, ev.ifindex = nd, ifindex
	nd.cpu.AtHandler(nd.net.sched, nd.cpuDone(fb.Len()), ev)
}

// frameEventKind selects what a frameEvent does when it fires.
type frameEventKind uint8

const (
	evTxReady frameEventKind = iota // sender CPU done: hand fb to the link
	evArrive                        // propagation done: fb reaches the far node
	evRxReady                       // receiver CPU done: run the handler
)

// frameEvent is the fabric's one scheduled-event record. Every hop of a frame
// (transmit CPU, arrival, receive CPU) schedules one, as the record itself:
// it is the event's sim.Handler. Records come evSlabSize to an allocation
// and are recycled through the network's free list, so scheduling a hop
// allocates nothing in steady state.
//
// An arrival's record doubles as the frame's entry in its direction's
// transmit queue (size, done, queued): the frame is serialized before it
// arrives, so the entry has always left the queue when the record is recycled.
type frameEvent struct {
	net     *Network
	kind    frameEventKind
	node    *Node
	link    *Link
	side    int
	ifindex int
	size    int
	done    time.Duration // when the frame has been serialized
	queued  *frameEvent   // the frame behind this one in the transmit queue
	free    *frameEvent   // the next free record while this one is free
	fb      *frame.Buf
}

// getEvent takes a record off the free list, refilling the list with a new
// slab of records when it is empty.
func (n *Network) getEvent(kind frameEventKind, fb *frame.Buf) *frameEvent {
	if n.evFree == nil {
		slab := make([]frameEvent, evSlabSize)
		for i := range slab {
			slab[i].net, slab[i].free = n, n.evFree
			n.evFree = &slab[i]
		}
	}
	ev := n.evFree
	n.evFree, ev.free = ev.free, nil
	ev.kind, ev.fb = kind, fb
	return ev
}

// OnTimer runs the hop. The record goes back on the free list first, so the
// events the hop schedules can reuse it.
func (ev *frameEvent) OnTimer() {
	kind, node, link, side, ifindex, fb := ev.kind, ev.node, ev.link, ev.side, ev.ifindex, ev.fb
	ev.node, ev.link, ev.fb = nil, nil, nil
	ev.free, ev.net.evFree = ev.net.evFree, ev
	switch kind {
	case evTxReady:
		if !node.alive {
			fb.Release()
			return
		}
		link.transmit(side, fb)
	case evArrive:
		// At the latest now the record leaves the transmit queue, before
		// deliver can take it off the free list.
		link.drain(side)
		node.deliver(ifindex, fb)
	case evRxReady:
		if !node.alive {
			fb.Release()
			return
		}
		node.received++
		if node.handler != nil {
			node.handler.HandleFrame(ifindex, fb.Bytes())
		}
		fb.Release()
	}
}

type endpoint struct {
	node    *Node
	ifindex int
}

// Link is a duplex point-to-point link. Each direction has an independent
// transmitter and drop-tail queue.
type Link struct {
	net  *Network
	cfg  LinkConfig
	ends [2]endpoint

	txFree  [2]time.Duration // when the direction's transmitter frees up
	backlog [2]int           // queued bytes per direction, as of the last drain
	// Frames not yet seen to leave the direction's transmit queue, oldest
	// first, chained through their arrival records. No event marks a frame
	// serialized: whoever needs the backlog drains the queue first.
	queueHead, queueTail [2]*frameEvent
	arrive               [2]sim.Lane // frames on the wire towards the far node

	// Stats per direction (index = sending side).
	txFrames  [2]uint64
	txBytes   [2]uint64
	lost      [2]uint64
	queueDrop [2]uint64
}

// SetLoss changes the link's random loss probability (both directions).
func (l *Link) SetLoss(p float64) { l.cfg.Loss = p }

// Stats returns, per direction, frames transmitted, frames lost to random
// loss, and frames dropped at the queue.
func (l *Link) Stats() (tx, lost, queueDrop [2]uint64) {
	return l.txFrames, l.lost, l.queueDrop
}

// TxBytes returns, per direction, the bytes of the frames transmitted.
func (l *Link) TxBytes() [2]uint64 { return l.txBytes }

// Backlogs returns the bytes currently queued in each direction (index =
// sending side) — the instantaneous queue depths.
func (l *Link) Backlogs() (ab, ba int) {
	l.drain(0)
	l.drain(1)
	return l.backlog[0], l.backlog[1]
}

// drain takes the frames serialized by now out of the direction's transmit
// queue. Serialization finishes in queue order, so they are at its head.
func (l *Link) drain(side int) {
	now := l.net.sched.Now()
	q := l.queueHead[side]
	for q != nil && q.done <= now {
		l.backlog[side] -= q.size
		q = q.queued
	}
	l.queueHead[side] = q
}

func (l *Link) serialization(size int) time.Duration {
	if l.cfg.Rate <= 0 {
		return 0
	}
	bits := int64(size) * 8
	return time.Duration(bits * int64(time.Second) / l.cfg.Rate)
}

// transmit queues a frame for transmission from the given side. It owns fb:
// drop paths release it, and delivery hands it to the destination node.
func (l *Link) transmit(side int, fb *frame.Buf) {
	n := l.net
	s := n.sched
	size := fb.Len()
	l.drain(side)
	if l.backlog[side]+size > l.cfg.QueueBytes {
		l.queueDrop[side]++
		if b := n.bus; b.Enabled(obs.KindQueueDrop) {
			b.Publish(obs.Event{
				Kind: obs.KindQueueDrop, Node: l.ends[side].node.name, Size: size,
				Peer: l.ends[1-side].node.name,
			})
		}
		fb.Release()
		return
	}
	if l.cfg.Loss > 0 && s.Rand().Float64() < l.cfg.Loss {
		l.lost[side]++
		if b := n.bus; b.Enabled(obs.KindPacketLoss) {
			b.Publish(obs.Event{
				Kind: obs.KindPacketLoss, Node: l.ends[side].node.name, Size: size,
				Peer: l.ends[1-side].node.name,
			})
		}
		fb.Release()
		return
	}
	l.backlog[side] += size
	start := s.Now()
	if l.txFree[side] > start {
		start = l.txFree[side]
	}
	done := start + l.serialization(size)
	l.txFree[side] = done
	dst := l.ends[1-side]
	l.txFrames[side]++
	l.txBytes[side] += uint64(size)
	if tap := n.tap; tap != nil {
		tap(l.ends[side].node, dst.node, fb.Bytes())
	}
	arrive := done + l.cfg.Delay
	if l.cfg.Jitter > 0 {
		arrive += time.Duration(s.Rand().Int63n(int64(l.cfg.Jitter) + 1))
	}
	ar := n.getEvent(evArrive, fb)
	ar.node, ar.ifindex = dst.node, dst.ifindex
	// The frame leaves the transmit queue once serialized; propagation
	// happens "on the wire" and does not hold queue space.
	ar.link, ar.side, ar.size, ar.done, ar.queued = l, side, size, done, nil
	if l.queueHead[side] == nil {
		l.queueHead[side] = ar
	} else {
		l.queueTail[side].queued = ar
	}
	l.queueTail[side] = ar
	// A jittered frame that would overtake the one before it falls out of
	// the lane and is scheduled on its own (see sim.Lane.At).
	l.arrive[side].AtHandler(s, arrive, ar)
}
