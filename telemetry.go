package hydranet

import (
	"io"
	"time"

	"hydranet/internal/obs"
	"hydranet/internal/series"
	"hydranet/internal/sim"
)

// defaultCadence is the sampling interval when none is given: ten ticks per
// virtual second, fine enough to catch a sub-second gray failure, coarse
// enough to stay far off the packet-rate hot path.
const defaultCadence = 100 * time.Millisecond

// maxConnSeries caps how many live connections per host get per-connection
// series (srtt/rto/cwnd), in the stack's deterministic sorted order;
// connections beyond the cap still count in host totals.
const maxConnSeries = 4

// telemetry is an attached sampling pipeline: a timer on the virtual clock
// scrapes the net-wide snapshot diff, per-connection TCP state,
// redirector table sizes, link queue depths, frame-pool
// occupancy and the scheduler backlog into a series.Set every cadence.
//
// Nothing here touches a packet path: when no telemetry is attached the
// simulation runs exactly as before (zero cost), and an attached one costs
// one scheduler event plus one snapshot per interval. A started pipeline
// re-arms itself until Stop, so a network with one running never goes idle.
type telemetry struct {
	net    *Net
	set    *series.Set
	timer  *sim.Timer
	every  time.Duration
	ticks  uint64
	scorer *series.HealthScorer
	probe  *obs.FailoverProbe // nil: no fail-over phases in the export header

	prev       Snapshot
	prevMisses uint64

	hosts   []hostSeries
	samples []series.ReplicaSample // scratch, reused per tick
}

// hostSeries caches one host's series so the tick loop does no name
// formatting for the common counters.
type hostSeries struct {
	host *Host

	retransmits, peerRetransmits, rtoEvents *series.Series
	segsIn, segsOut, deposited              *series.Series
	framesRx                                *series.Series
	alive, conns, procBacklog               *series.Series
	health                                  *series.Series // nil unless an FT replica
}

// startSampler attaches a telemetry pipeline over the hosts, links and
// redirectors that exist now and starts it: the first tick fires one
// cadence (default 100 ms) from now, and it reschedules itself until Stop.
// The gray-failure health scorer classifies every FT replica the net has
// deployed, each into a health.<host> gauge series: 0 healthy, 1 degraded,
// 2 dead.
func (n *Net) startSampler(every time.Duration, probe *obs.FailoverProbe) *telemetry {
	if every <= 0 {
		every = defaultCadence
	}
	t := &telemetry{
		net:    n,
		set:    series.NewSet(),
		scorer: series.NewHealthScorer(),
		every:  every,
		probe:  probe,
	}
	t.timer = sim.NewTimer(n.sched, t.tick)
	for _, h := range n.hosts {
		name := h.name
		t.hosts = append(t.hosts, hostSeries{
			host:            h,
			retransmits:     t.set.Counter("host."+name+".retransmits", "segments"),
			peerRetransmits: t.set.Counter("host."+name+".peer_retransmits", "segments"),
			rtoEvents:       t.set.Counter("host."+name+".rto_events", "timeouts"),
			segsIn:          t.set.Counter("host."+name+".segs_in", "segments"),
			segsOut:         t.set.Counter("host."+name+".segs_out", "segments"),
			deposited:       t.set.Counter("host."+name+".deposited_bytes", "bytes"),
			framesRx:        t.set.Counter("host."+name+".frames_rx", "frames"),
			alive:           t.set.Gauge("host."+name+".alive", ""),
			conns:           t.set.Gauge("host."+name+".conns", "conns"),
			procBacklog:     t.set.Gauge("host."+name+".proc_backlog_ms", "ms"),
		})
	}
	t.timer.Reset(every)
	return t
}

// Stop disarms the pipeline; collected series remain readable.
func (t *telemetry) Stop() { t.timer.Stop() }

// tick is the per-interval probe: snapshot, diff, scrape, score, then
// re-arm.
func (t *telemetry) tick() {
	now := t.net.sched.Now()
	t.ticks++
	// Before anything else, start a health series for each FT replica
	// deployed since the last tick.
	for i := range t.hosts {
		if hs := &t.hosts[i]; hs.host.ftReplica && hs.health == nil {
			hs.health = t.set.Gauge("health."+hs.host.name, "verdict")
		}
	}
	cur := t.net.Snapshot()
	d := cur.Diff(t.prev)

	// Per-host layer counters (interval deltas) and liveness gauges.
	// Snapshot.Hosts follows Net host order, so index i matches t.hosts[i].
	for i := range t.hosts {
		hs := &t.hosts[i]
		dh := &d.Hosts[i]
		hs.retransmits.Observe(now, float64(dh.Conns.Retransmits))
		hs.peerRetransmits.Observe(now, float64(dh.Conns.PeerRetransmits))
		hs.rtoEvents.Observe(now, float64(dh.Conns.RTOEvents))
		hs.segsIn.Observe(now, float64(dh.TCP.SegsIn))
		hs.segsOut.Observe(now, float64(dh.TCP.SegsOut))
		hs.deposited.Observe(now, float64(dh.Conns.BytesReceived))
		hs.framesRx.Observe(now, float64(dh.Frames.Received))
		alive := 0.0
		if dh.Alive {
			alive = 1
		}
		hs.alive.Observe(now, alive)
		hs.conns.Observe(now, float64(dh.TCP.Conns))
		hs.procBacklog.Observe(now, float64(dh.ProcBacklog)/float64(time.Millisecond))

		// Per-connection TCP telemetry, capped, in the stack's sorted
		// (deterministic) order.
		conns := hs.host.tcp.Conns()
		for j, c := range conns {
			if j >= maxConnSeries {
				break
			}
			prefix := "conn." + hs.host.name + "." + connLabel(c)
			t.set.Gauge(prefix+".srtt_ms", "ms").Observe(now, float64(c.SRTT())/float64(time.Millisecond))
			t.set.Gauge(prefix+".rto_ms", "ms").Observe(now, float64(c.RTO())/float64(time.Millisecond))
			t.set.Gauge(prefix+".cwnd", "bytes").Observe(now, float64(c.CongestionWindow()))
			t.set.Gauge(prefix+".retransmits_total", "segments").Observe(now, float64(c.Stats().Retransmits))
		}
	}

	// Redirectors: table size gauge plus interval multicast counters.
	for i, r := range t.net.redirectors {
		name := r.Host.name
		t.set.Gauge("rd."+name+".services", "entries").Observe(now, float64(r.rd.NumServices()))
		if i < len(d.Redirectors) {
			dr := &d.Redirectors[i]
			t.set.Counter("rd."+name+".multicasts", "packets").Observe(now, float64(dr.Table.Multicast))
			t.set.Counter("rd."+name+".multicast_copies", "packets").Observe(now, float64(dr.Table.MulticastCopies))
		}
	}

	// Link queue depths (instantaneous bytes) and interval queue drops.
	for i := range t.net.links {
		li := &t.net.links[i]
		ab, ba := li.underlying.Backlogs()
		base := "link." + li.a.name + "-" + li.b.name
		t.set.Gauge(base+".queue_ab", "bytes").Observe(now, float64(ab))
		t.set.Gauge(base+".queue_ba", "bytes").Observe(now, float64(ba))
		if i < len(d.Links) {
			dl := &d.Links[i]
			t.set.Counter(base+".queue_drops", "frames").Observe(now,
				float64(dl.AB.QueueDrop+dl.BA.QueueDrop))
		}
	}

	// Frame-pool occupancy and scheduler backlog.
	pool := t.net.fab.Pool()
	t.set.Gauge("pool.outstanding", "frames").Observe(now, float64(pool.Outstanding()))
	_, _, misses := pool.Stats()
	t.set.Counter("pool.misses", "frames").Observe(now, float64(misses-t.prevMisses))
	t.prevMisses = misses
	t.set.Gauge("sched.pending", "events").Observe(now, float64(t.net.sched.Pending()))

	// Health scoring over the FT replicas: feed cumulative counters, the
	// scorer diffs internally and cross-compares the replica set.
	t.samples = t.samples[:0]
	for i := range t.hosts {
		if t.hosts[i].health != nil {
			hs := &cur.Hosts[i]
			t.samples = append(t.samples, series.ReplicaSample{
				Name:            hs.Name,
				Alive:           hs.Alive,
				PeerRetransmits: float64(hs.Conns.PeerRetransmits),
				DepositedBytes:  float64(hs.Conns.BytesReceived),
				SegsIn:          float64(hs.TCP.SegsIn),
				ProcBacklog:     hs.ProcBacklog,
			})
		}
	}
	if len(t.samples) > 0 {
		t.scorer.Tick(now, t.samples)
		for i := range t.hosts {
			if hs := &t.hosts[i]; hs.health != nil {
				hs.health.Observe(now, float64(t.scorer.Verdict(hs.host.name)))
			}
		}
	}

	t.prev = cur
	t.timer.Reset(t.every)
}

// connLabel names a connection by its endpoints.
func connLabel(c *Conn) string {
	return c.Local().String() + "-" + c.Remote().String()
}

// meta builds the export header.
func (t *telemetry) meta() series.Meta {
	m := series.Meta{
		Every: t.every,
		Ticks: t.ticks,
		Seed:  t.net.cfg.Seed,
	}
	if t.probe != nil {
		if r := t.probe.Report(); r.CrashAt > 0 {
			m.Failover = &r
		}
	}
	return m
}

// WriteJSONL exports the collected series as JSON lines: the meta header
// with the failover timeline, then one object per series.
func (t *telemetry) WriteJSONL(w io.Writer) error {
	return series.WriteJSONL(w, t.meta(), t.set)
}

// SetProcessing changes the host's CPU cost model mid-run — gray-failure
// injection: a large per-frame delay makes the host slow without killing
// it, the "degraded, not dead" scenario the health scorer exists to catch.
func (h *Host) SetProcessing(procDelay, procPerByte time.Duration) {
	h.node.SetProc(procDelay, procPerByte)
}
