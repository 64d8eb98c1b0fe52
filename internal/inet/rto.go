package inet

import "time"

// RTO is the RFC 6298 retransmission-timeout estimator both reliable
// transports share: TCP, and the management protocol's reliable UDP. The
// caller applies Karn's rule — it samples only exchanges acknowledged on
// their first transmission.
//
// RTO = SRTT + max(G, 4·RTTVAR), clamped to [min, max]. G is the clock
// granularity of RFC 6298 §2: a floor under the variance term, so a path
// that answers in the same time on every sample still leaves a margin.
type RTO struct {
	srtt, rttvar time.Duration
	sampled      bool
	rto          time.Duration
	backoff      uint // consecutive timeouts since the last sample

	min, max, g time.Duration
}

// NewRTO returns an estimator that answers initial until its first sample.
func NewRTO(initial, lo, hi, g time.Duration) RTO {
	return RTO{rto: initial, min: lo, max: hi, g: g}
}

// Sample folds a fresh round-trip measurement into the estimate and clears
// any backoff.
func (e *RTO) Sample(rtt time.Duration) {
	if !e.sampled {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.sampled = true
	} else {
		diff := e.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	e.backoff = 0
	e.rto = e.srtt + max(e.g, 4*e.rttvar)
	e.rto = min(max(e.rto, e.min), e.max)
}

// Current returns the RTO including backoff.
func (e *RTO) Current() time.Duration {
	return min(e.rto<<e.backoff, e.max)
}

// Base returns the RTO without backoff: what the next timeout would wait had
// none of the earlier ones fired. It moves with Sample only.
func (e *RTO) Base() time.Duration { return min(e.rto, e.max) }

// TimedOut doubles the effective RTO for the next retransmission (RFC 6298
// §5.5), up to max.
func (e *RTO) TimedOut() {
	if e.Current() < e.max {
		e.backoff++
	}
}

// ResetBackoff clears exponential backoff (used on failover promotion so a
// new primary retransmits promptly).
func (e *RTO) ResetBackoff() { e.backoff = 0 }
