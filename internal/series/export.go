package series

import (
	"bufio"
	"encoding/json"
	"io"
	"time"

	"hydranet/internal/obs"
)

// FormatVersion is the exported series format version.
const FormatVersion = 1

// Meta is the run-level header exported ahead of the series: the sampling
// cadence (needed to interpret counter increments as rates), the seed, and
// — when a failover probe was attached — the Table-2 timeline the report
// renderer aligns phases to.
type Meta struct {
	Version  int                 `json:"hydranet_series"`
	Every    time.Duration       `json:"every_ns"`
	Ticks    uint64              `json:"ticks"`
	Seed     int64               `json:"seed,omitempty"`
	Failover *obs.FailoverReport `json:"failover,omitempty"`
}

// Data is one series in exported form: the run-wide aggregates plus the
// retained window of points.
type Data struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Unit   string  `json:"unit,omitempty"`
	Count  uint64  `json:"count"`
	Total  float64 `json:"total"`
	Mean   float64 `json:"mean"`
	Max    float64 `json:"max"`
	Last   float64 `json:"last"`
	Points []Point `json:"points"`
}

// Data exports the series.
func (s *Series) Data() Data {
	return Data{
		Name:   s.name,
		Kind:   s.kind.String(),
		Unit:   s.unit,
		Count:  s.count,
		Total:  s.total,
		Mean:   s.Mean(),
		Max:    s.max,
		Last:   s.last,
		Points: s.Points(make([]Point, 0, s.n)),
	}
}

// WriteJSONL exports the set as JSON lines: the Meta header first, then one
// Data object per series in creation order — lossless for aggregates,
// failover timeline included.
func WriteJSONL(w io.Writer, meta Meta, set *Set) error {
	meta.Version = FormatVersion
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	var err error
	set.Each(func(s *Series) {
		if err != nil {
			return
		}
		err = enc.Encode(s.Data())
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
