package testbed

import (
	"cmp"
	"fmt"
	"time"

	"hydranet"
)

// crashAt is when MeasureFailover kills the primary, relative to the start of
// the client's stream.
const crashAt = 500 * time.Millisecond

// FailoverConfig parameterizes a failover-latency measurement (ablation A1:
// the paper's Section 4.3 trade-off between detection latency and false
// positives, swept over the retransmission threshold).
type FailoverConfig struct {
	// Threshold is the detector's retransmission threshold.
	Threshold int
	// Backups is the number of backup replicas (default 1).
	Backups int
	// Seed drives the simulation.
	Seed int64
	// Loss, if nonzero, adds random loss to every link — for measuring
	// false positives under congestion-like conditions.
	Loss float64
	// NoCrash keeps every host alive: the run measures detector false
	// positives (suspicions and wrongful reconfigurations) only.
	NoCrash bool
	// Observe selects the run's observers and artifact files; they attach
	// once the topology stands, before the service registers.
	Observe hydranet.Instruments
	// FlightPrefix and SpansPath are names bench/ compiles against;
	// MeasureFailover ignores both, which name no observer (DESIGN.md §11).
	FlightPrefix, SpansPath string
}

// FailoverResult reports what happened.
type FailoverResult struct {
	// Detected is when the redirector completed reconfiguration after the
	// crash (zero if never).
	Detected time.Duration
	// Resumed is when the client received its first post-crash byte (zero
	// if never).
	Resumed time.Duration
	// Suspicions counts detector trips across all replicas.
	Suspicions uint64
	// FalseReconfigs counts reconfigurations that removed a live host.
	FalseReconfigs int
	// Delivered is the total number of bytes echoed back to the client.
	Delivered int
	// ClientError is non-nil if the client connection broke — a failure of
	// transparency.
	ClientError error
	// Violations counts protocol-invariant violations (0 unless the run was
	// monitored).
	Violations int
	// ObserveErr is what attaching or flushing the run's observers reported
	// (an unwritable artifact); without observers attached nothing ran.
	ObserveErr error
}

// MeasureFailover streams continuously through a replicated echo service,
// kills the primary mid-stream, and measures detection and resume latency
// at the client.
func MeasureFailover(cfg FailoverConfig) FailoverResult {
	return cfg.scenario().play().FailoverResult
}

// scenario is the echo stream cfg describes, its primary crashed at crashAt
// unless NoCrash. The run lasts long enough for worst-case detection
// (threshold retransmissions under exponential backoff) plus recovery.
func (c FailoverConfig) scenario() scenario {
	backups, f := cmp.Or(c.Backups, 1), crashPrimary
	if c.NoCrash {
		f = noFault
	}
	return scenario{name: fmt.Sprintf("failover threshold=%d backups=%d loss=%g", c.Threshold, backups, c.Loss),
		seed: c.Seed, observe: c.Observe, replicas: 1 + backups, loss: c.Loss, threshold: c.Threshold,
		fault: f, faultAt: crashAt, limit: 4 * time.Minute}
}
