// Package series is the simulator's time-series layer: fixed-capacity,
// ring-buffered series of (virtual time, value) points, fed by the facade's
// periodic sampler on the discrete-event clock. It follows the obs.Bus
// contract — zero allocation on the recording path and zero cost when
// nothing is attached — so a sampler can run inside measurement loops
// without perturbing what it measures.
//
// Two series kinds exist. A Counter series records per-interval increments
// of a monotonic counter (the sampler diffs cumulative counters before
// observing); its run-wide Total survives ring eviction. A Gauge series
// records instantaneous values (queue depth, srtt, cwnd); its run-wide
// mean/max survive eviction. The retained window — the last Cap() points —
// is what timeline reports render; the aggregates are what run diffs
// compare.
package series

import "time"

// Kind distinguishes counter (per-interval increment) from gauge
// (instantaneous value) series.
type Kind uint8

// Series kinds.
const (
	Counter Kind = iota
	Gauge
)

// String names the kind as it appears in exports.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// Point is one sample: a virtual-clock instant and a value.
type Point struct {
	T time.Duration `json:"t"`
	V float64       `json:"v"`
}

// Series is one named time series backed by a fixed-capacity ring: Observe
// never allocates, and once the ring fills the oldest point is evicted.
// Run-wide aggregates (Count, Total, Max, Mean, Last) cover every point
// ever observed, not just the retained window.
type Series struct {
	name string
	kind Kind
	unit string

	pts  []Point // ring storage, len == capacity
	head int     // index of the oldest retained point
	n    int     // retained points

	count uint64  // points ever observed
	total float64 // sum of observed values
	max   float64
	last  float64
}

// ringCapacity is every series' ring capacity: at the default 100 ms
// cadence it retains the last ~100 virtual seconds.
const ringCapacity = 1024

// newSeries builds an empty series.
func newSeries(name string, kind Kind, unit string) *Series {
	return &Series{name: name, kind: kind, unit: unit, pts: make([]Point, ringCapacity)}
}

// Observe appends one point, evicting the oldest if the ring is full.
// This is the sampler's per-tick hot path.
func (s *Series) Observe(t time.Duration, v float64) {
	i := s.head + s.n
	if i >= len(s.pts) {
		i -= len(s.pts)
	}
	s.pts[i] = Point{T: t, V: v}
	if s.n < len(s.pts) {
		s.n++
	} else {
		s.head++
		if s.head == len(s.pts) {
			s.head = 0
		}
	}
	s.count++
	s.total += v
	if s.count == 1 || v > s.max {
		s.max = v
	}
	s.last = v
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Len returns the number of retained points.
func (s *Series) Len() int { return s.n }

// Cap returns the ring capacity.
func (s *Series) Cap() int { return len(s.pts) }

// Count returns the number of points ever observed (≥ Len once the ring
// has wrapped).
func (s *Series) Count() uint64 { return s.count }

// Total returns the sum of every observed value — for a counter series,
// the run-wide total.
func (s *Series) Total() float64 { return s.total }

// Max returns the largest observed value (0 with no points).
func (s *Series) Max() float64 { return s.max }

// Mean returns the run-wide mean observed value (0 with no points).
func (s *Series) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.total / float64(s.count)
}

// Last returns the most recent value (0 with no points).
func (s *Series) Last() float64 { return s.last }

// At returns the i-th retained point, oldest first (0 ≤ i < Len).
func (s *Series) At(i int) Point {
	j := s.head + i
	if j >= len(s.pts) {
		j -= len(s.pts)
	}
	return s.pts[j]
}

// Points appends the retained window, oldest first, to dst and returns it.
func (s *Series) Points(dst []Point) []Point {
	for i := 0; i < s.n; i++ {
		dst = append(dst, s.At(i))
	}
	return dst
}

// Set is an ordered registry of series. Iteration follows creation order —
// never map order — so every export and report is byte-stable across runs.
type Set struct {
	byName map[string]*Series
	order  []*Series
}

// NewSet creates an empty registry.
func NewSet() *Set {
	return &Set{byName: make(map[string]*Series)}
}

// Counter returns the named counter series, creating it on first use.
func (s *Set) Counter(name, unit string) *Series { return s.series(name, Counter, unit) }

// Gauge returns the named gauge series, creating it on first use.
func (s *Set) Gauge(name, unit string) *Series { return s.series(name, Gauge, unit) }

func (s *Set) series(name string, kind Kind, unit string) *Series {
	if sr, ok := s.byName[name]; ok {
		return sr
	}
	sr := newSeries(name, kind, unit)
	s.byName[name] = sr
	s.order = append(s.order, sr)
	return sr
}

// Get returns the named series (nil if absent).
func (s *Set) Get(name string) *Series { return s.byName[name] }

// Len returns the number of registered series.
func (s *Set) Len() int { return len(s.order) }

// Each visits every series in creation order.
func (s *Set) Each(fn func(*Series)) {
	for _, sr := range s.order {
		fn(sr)
	}
}
