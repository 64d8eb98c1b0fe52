package series

import "time"

// Verdict is a replica health classification.
type Verdict uint8

// Health verdicts, ordered by severity; the numeric value is what the
// health gauge series records.
const (
	Healthy Verdict = iota
	Degraded
	Dead
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// The scorer's thresholds.
const (
	// retransmitRate is the per-interval client-retransmission count at or
	// above which the replica set's distress latch arms: any observed
	// retransmission arms it. Under exponential RTO backoff the client's
	// retransmissions arrive seconds apart, so the latch stays armed between
	// them and only clears once the set flows cleanly again (deposits
	// progressing, no retransmissions, no replica trailing by lagBytes).
	retransmitRate = 1
	// lagBytes (one MSS) is the deposit-cursor spread (cluster max minus
	// min) below which the replica set counts as "in step" for clearing the
	// distress latch. Spread is NOT the straggler signal — chain position
	// skews healthy cursors by tens of kilobytes mid-stream, and a slow tail
	// freezes the whole set at equal cursors — it only gates when distress
	// is over.
	lagBytes = 1460
	// stallBacklog is how far a replica's serial CPU may run behind frame
	// arrival (ReplicaSample.ProcBacklog) before it is the straggler while
	// the latch is armed: a keeping-up replica's backlog is microseconds; a
	// gray-failing one holds seconds of queued frames.
	stallBacklog = 100 * time.Millisecond
	// sustain is how many consecutive distressed intervals a replica must
	// accumulate before its verdict drops to Degraded.
	sustain = 2
	// deadAfter is how many consecutive intervals a live replica may
	// receive nothing while a peer is receiving traffic before it is
	// declared Dead (unresponsive, not merely slow).
	deadAfter = 20
	// recoverAfter is how many consecutive clean intervals clear a Degraded
	// (or revived Dead) verdict back to Healthy.
	recoverAfter = 5
)

// ReplicaSample is one replica's cumulative counters at a tick. The scorer
// diffs consecutive samples itself, so callers feed raw snapshot values.
type ReplicaSample struct {
	Name string
	// Alive is the fail-stop flag: false means the host is crashed.
	Alive bool
	// PeerRetransmits is the cumulative count of retransmitted segments
	// this replica has received from its peers — for a replica, the
	// client's retransmissions, the paper's own failure-detector signal.
	PeerRetransmits float64
	// DepositedBytes is the cumulative payload bytes deposited to the
	// application (tcp.ConnStats.BytesReceived).
	DepositedBytes float64
	// SegsIn is the cumulative TCP segments received.
	SegsIn float64
	// ProcBacklog is the host's instantaneous ingress-processing backlog:
	// how far its serial CPU is running behind frame arrival. A gauge, not
	// a counter.
	ProcBacklog time.Duration
}

type replicaHealth struct {
	verdict Verdict

	prev    ReplicaSample
	started bool

	distressed int // consecutive distressed intervals
	clean      int // consecutive clean intervals
	silent     int // consecutive zero-SegsIn intervals while peers receive

	firstDegraded time.Duration
}

// HealthScorer turns per-replica telemetry series into healthy/degraded/
// dead verdicts. Its model of the paper's gray-failure gap: the threshold
// detector only trips after the client has retransmitted
// RetransmitThreshold times under exponential RTO backoff (seconds), but a
// slow replica betrays itself within a sampling interval or two.
//
// Two signals combine. The network-side signal is the distress latch:
// client retransmissions (which the redirector multicasts to every
// replica) arm it, and it holds until the set is depositing cleanly in
// step again — a latch, not a per-interval test, because backoff spaces
// retransmits further apart than any reasonable sampling cadence. The
// host-side signal attributes the distress: while the latch is armed, the
// replica whose ingress-processing backlog exceeds stallBacklog for
// sustain consecutive intervals is the straggler and drops to Degraded.
// Deposit-cursor lag deliberately plays no part in attribution — chain
// position skews healthy cursors mid-stream, and a slow chain tail
// freezes every cursor at the same value, so the cursor geometry points
// at the wrong host exactly when it matters.
//
// A replica is Dead when its host is down (fail-stop) or when it has been
// silent for deadAfter intervals while peers receive traffic. Dead beats
// Degraded; a revived replica walks back to Healthy through recoverAfter
// clean intervals.
type HealthScorer struct {
	replicas map[string]*replicaHealth
	latched  bool // retransmissions seen, set not yet back in step
}

// NewHealthScorer creates a scorer.
func NewHealthScorer() *HealthScorer {
	return &HealthScorer{replicas: make(map[string]*replicaHealth)}
}

// Tick scores one sampling interval. samples carries every watched
// replica's cumulative counters, in a caller-stable order (verdict
// evaluation compares replicas against each other, so they arrive
// together). The first tick only establishes baselines.
func (h *HealthScorer) Tick(now time.Duration, samples []ReplicaSample) {
	// Pass 1: interval deltas and cross-replica context.
	var maxDeposited, minDeposited float64
	var maxRetrans float64
	var maxSegsIn float64
	var maxDepositDelta float64
	sawStarted := false
	for _, s := range samples {
		r := h.replica(s.Name)
		if !r.started {
			continue
		}
		if !sawStarted || s.DepositedBytes > maxDeposited {
			maxDeposited = s.DepositedBytes
		}
		if !sawStarted || s.DepositedBytes < minDeposited {
			minDeposited = s.DepositedBytes
		}
		sawStarted = true
		if d := s.PeerRetransmits - r.prev.PeerRetransmits; d > maxRetrans {
			maxRetrans = d
		}
		if d := s.SegsIn - r.prev.SegsIn; d > maxSegsIn {
			maxSegsIn = d
		}
		if d := s.DepositedBytes - r.prev.DepositedBytes; d > maxDepositDelta {
			maxDepositDelta = d
		}
	}
	// The distress latch: arm on any interval with client retransmissions,
	// clear only once the set is flowing cleanly again — deposits
	// progressing, cursors in step, no fresh retransmissions. A stalled
	// set (no progress at all) stays latched: exponential backoff means
	// the retransmits that prove the stall land many intervals apart.
	if maxRetrans >= retransmitRate {
		h.latched = true
	} else if maxDepositDelta > 0 && maxDeposited-minDeposited < lagBytes {
		h.latched = false
	}
	// Pass 2: per-replica verdicts.
	for _, s := range samples {
		r := h.replica(s.Name)
		if !r.started {
			r.prev = s
			r.started = true
			continue
		}
		segsInDelta := s.SegsIn - r.prev.SegsIn
		r.prev = s

		switch {
		case !s.Alive:
			r.silent = 0
			r.distressed = 0
			r.clean = 0
			h.setVerdict(r, Dead, now)
			continue
		case segsInDelta <= 0 && maxSegsIn > 0:
			// Peers are receiving; this replica hears nothing. The
			// redirector multicasts every client packet, so sustained
			// silence means the replica is unreachable, not slow.
			r.silent++
			if r.silent >= deadAfter {
				r.distressed = 0
				r.clean = 0
				h.setVerdict(r, Dead, now)
				continue
			}
		default:
			r.silent = 0
		}

		distressed := h.latched && s.ProcBacklog >= stallBacklog
		if distressed {
			r.distressed++
			r.clean = 0
			if r.distressed >= sustain && r.verdict == Healthy {
				h.setVerdict(r, Degraded, now)
			}
		} else {
			r.distressed = 0
			r.clean++
			if r.verdict != Healthy && r.clean >= recoverAfter {
				h.setVerdict(r, Healthy, now)
			}
		}
	}
}

func (h *HealthScorer) replica(name string) *replicaHealth {
	if r, ok := h.replicas[name]; ok {
		return r
	}
	r := &replicaHealth{}
	h.replicas[name] = r
	return r
}

func (h *HealthScorer) setVerdict(r *replicaHealth, v Verdict, now time.Duration) {
	if r.verdict == v {
		return
	}
	r.verdict = v
	if v == Degraded && r.firstDegraded == 0 {
		r.firstDegraded = now
	}
}

// Verdict returns the replica's current verdict (Healthy if unknown).
func (h *HealthScorer) Verdict(name string) Verdict {
	if r, ok := h.replicas[name]; ok {
		return r.verdict
	}
	return Healthy
}

// FirstDegradedAt returns when the replica first dropped to Degraded.
func (h *HealthScorer) FirstDegradedAt(name string) (time.Duration, bool) {
	if r, ok := h.replicas[name]; ok && r.firstDegraded != 0 {
		return r.firstDegraded, true
	}
	return 0, false
}
