package tcp

import "time"

// rtoEstimator implements RFC 6298-style retransmission-timeout estimation
// with Karn's algorithm applied by the caller (retransmitted segments are
// never sampled) and exponential backoff on timeout.
type rtoEstimator struct {
	srtt, rttvar time.Duration
	haveSample   bool
	rto          time.Duration
	backoff      uint // consecutive timeouts

	minRTO, maxRTO time.Duration
}

// sample folds a fresh round-trip measurement into the estimate and clears
// any backoff.
func (e *rtoEstimator) sample(rtt time.Duration) {
	if !e.haveSample {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.haveSample = true
	} else {
		diff := e.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	e.backoff = 0
	e.rto = e.srtt + 4*e.rttvar
	e.clamp()
}

// current returns the RTO including backoff.
func (e *rtoEstimator) current() time.Duration {
	rto := e.rto << e.backoff
	if rto > e.maxRTO {
		return e.maxRTO
	}
	return rto
}

// timedOut doubles the effective RTO for the next retransmission.
func (e *rtoEstimator) timedOut() {
	if e.current() < e.maxRTO {
		e.backoff++
	}
}

// resetBackoff clears exponential backoff (used on failover promotion so a
// new primary retransmits promptly).
func (e *rtoEstimator) resetBackoff() { e.backoff = 0 }

func (e *rtoEstimator) clamp() {
	if e.rto < e.minRTO {
		e.rto = e.minRTO
	}
	if e.rto > e.maxRTO {
		e.rto = e.maxRTO
	}
}
