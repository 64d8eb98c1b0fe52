package series

import (
	"time"

	"hydranet/internal/sim"
)

// DefaultCadence is the sampling interval used when a Sampler is created
// with 0: ten ticks per virtual second, fine enough to catch a sub-second
// gray failure, coarse enough to stay far off the packet-rate hot path.
const DefaultCadence = 100 * time.Millisecond

// Sampler drives periodic scrapes on the virtual clock: every cadence it
// runs its probe functions, which read cumulative counters and feed series.
// The tick itself is allocation-free (the scheduler fires the sim.Timer
// directly and re-arming reuses its heap node), so an armed sampler costs one
// scheduler event per interval and nothing on any packet path.
//
// A started sampler reschedules itself until Stop (hydranet's
// Session.Finish), so a network with one running never goes idle.
type Sampler struct {
	every  time.Duration
	timer  *sim.Timer
	now    func() time.Duration
	probes []func(now time.Duration)
	ticks  uint64
}

// NewSampler creates a stopped sampler on the scheduler with the given
// cadence (DefaultCadence if 0).
func NewSampler(sched *sim.Scheduler, every time.Duration) *Sampler {
	if every <= 0 {
		every = DefaultCadence
	}
	s := &Sampler{every: every, now: sched.Now}
	s.timer = sim.NewTimer(sched, s.tick)
	return s
}

// OnSample registers a probe run on every tick, in registration order.
func (s *Sampler) OnSample(probe func(now time.Duration)) {
	s.probes = append(s.probes, probe)
}

// Start arms the sampler: the first tick fires one cadence from now.
// Starting a running sampler is a no-op.
func (s *Sampler) Start() {
	if !s.timer.Armed() {
		s.timer.Reset(s.every)
	}
}

// Stop disarms the sampler. Probes and series are retained; Start resumes.
func (s *Sampler) Stop() { s.timer.Stop() }

// Running reports whether the sampler is armed.
func (s *Sampler) Running() bool { return s.timer.Armed() }

// Every returns the sampling cadence.
func (s *Sampler) Every() time.Duration { return s.every }

// Ticks returns how many times the sampler has fired.
func (s *Sampler) Ticks() uint64 { return s.ticks }

// tick runs the probes and reschedules. The loop and reschedule are
// allocation-free; each probe owns its own budget (facade probes read
// snapshots, which allocate — that cost is per tick, not per packet).
func (s *Sampler) tick() {
	now := s.now()
	s.ticks++
	for _, p := range s.probes {
		p(now)
	}
	s.timer.Reset(s.every)
}
