package obs

import "time"

// FailoverProbe reconstructs the paper's Table-2 decomposition of a
// fail-over from bus events: it watches for the first node crash, then the
// first suspicion, reconfiguration and promotion after it, and finally the
// first client-visible delivery after the promotion. Measurement harnesses
// publish KindClientDeliver from the client's read loop; everything else is
// emitted by the stack itself.
type FailoverProbe struct {
	crash, suspicion, reconfig, promotion, firstByte time.Duration
	seen                                             uint8
}

const (
	sawCrash = 1 << iota
	sawSuspicion
	sawReconfig
	sawPromotion
	sawFirstByte
)

// NewFailoverProbe subscribes a probe to the bus.
func NewFailoverProbe(b *Bus) *FailoverProbe {
	p := &FailoverProbe{}
	b.Subscribe(p.observe, KindNodeCrash, KindSuspicion, KindReconfig,
		KindPromotion, KindClientDeliver)
	return p
}

func (p *FailoverProbe) observe(e Event) {
	switch e.Kind {
	case KindNodeCrash:
		if p.seen&sawCrash == 0 {
			p.crash = e.Time
			p.seen |= sawCrash
		}
	case KindSuspicion:
		if p.seen&sawCrash != 0 && p.seen&sawSuspicion == 0 {
			p.suspicion = e.Time
			p.seen |= sawSuspicion
		}
	case KindReconfig:
		if p.seen&sawCrash != 0 && p.seen&sawReconfig == 0 {
			p.reconfig = e.Time
			p.seen |= sawReconfig
		}
	case KindPromotion:
		if p.seen&sawCrash != 0 && p.seen&sawPromotion == 0 {
			p.promotion = e.Time
			p.seen |= sawPromotion
		}
	case KindClientDeliver:
		if p.seen&sawPromotion != 0 && p.seen&sawFirstByte == 0 {
			p.firstByte = e.Time
			p.seen |= sawFirstByte
		}
	}
}

// FailoverReport is the probe's result. Absolute times are virtual-clock
// instants (zero when the phase was never observed); the duration fields
// are the paper's decomposition and are valid only when Complete.
type FailoverReport struct {
	CrashAt           time.Duration `json:"crash_at,omitempty"`
	SuspicionAt       time.Duration `json:"suspicion_at,omitempty"`
	ReconfigAt        time.Duration `json:"reconfig_at,omitempty"`
	PromotionAt       time.Duration `json:"promotion_at,omitempty"`
	FirstClientByteAt time.Duration `json:"first_client_byte_at,omitempty"`

	// Detection is crash → first suspicion: how long the failure estimator
	// needed (the Table-2 detection latency, a function of the
	// retransmission threshold).
	Detection time.Duration `json:"detection,omitempty"`
	// Reconfiguration is suspicion → promotion: probe, chain resplice and
	// role switch at the surviving replicas.
	Reconfiguration time.Duration `json:"reconfiguration,omitempty"`
	// ClientStall is crash → first post-promotion byte at the client: the
	// client-visible service interruption.
	ClientStall time.Duration `json:"client_stall,omitempty"`
	// Complete reports whether every phase was observed.
	Complete bool `json:"complete"`
}

// Report summarizes what the probe has seen so far.
func (p *FailoverProbe) Report() FailoverReport {
	r := FailoverReport{
		CrashAt:           p.crash,
		SuspicionAt:       p.suspicion,
		ReconfigAt:        p.reconfig,
		PromotionAt:       p.promotion,
		FirstClientByteAt: p.firstByte,
		Complete: p.seen&(sawCrash|sawSuspicion|sawReconfig|sawPromotion|sawFirstByte) ==
			sawCrash|sawSuspicion|sawReconfig|sawPromotion|sawFirstByte,
	}
	if p.seen&sawSuspicion != 0 {
		r.Detection = p.suspicion - p.crash
	}
	if p.seen&sawPromotion != 0 && p.seen&sawSuspicion != 0 {
		r.Reconfiguration = p.promotion - p.suspicion
	}
	if p.seen&sawFirstByte != 0 {
		r.ClientStall = p.firstByte - p.crash
	}
	return r
}
