// Package metrics provides the log-bucketed latency histogram that the TCP
// stack's RTT samples, counter snapshots and hydrascope's per-hop residence
// rows share.
package metrics

import (
	"fmt"
	"math/bits"
)

// Histogram is a log-bucketed (base-2) histogram for non-negative,
// latency-like samples. Bucket 0 covers [0,1); bucket i (i ≥ 1) covers
// [2^(i-1), 2^i). The unit is the caller's choice — the TCP stack feeds it
// RTT samples in milliseconds. Observation is allocation-free, so it can
// sit on protocol hot paths.
type Histogram struct {
	counts [numBuckets]uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

const numBuckets = 64

// bucketIndex maps a sample to its bucket.
func bucketIndex(v float64) int {
	if v < 1 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i >= numBuckets {
		i = numBuckets - 1
	}
	return i
}

// bucketBounds returns the [lo, hi) range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}

// Observe records one sample. Negative samples count as zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest sample (0 with no samples).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() float64 { return h.max }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket, clamped to the observed min and max.
func (h *Histogram) Quantile(q float64) float64 {
	v := quantileFromBuckets(h.counts[:], h.count, q)
	if v < h.min {
		v = h.min
	}
	if v > h.max && h.count > 0 {
		v = h.max
	}
	return v
}

func quantileFromBuckets(counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	lo, hi := bucketBounds(len(counts) - 1)
	_ = lo
	return hi
}

// HistogramBucket is one non-empty bucket in a snapshot: Count samples fell
// in [Lo, Hi).
type HistogramBucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is a JSON-serializable copy of a histogram's state,
// with convenience quantiles precomputed.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Min     float64           `json:"min"`
	Max     float64           `json:"max"`
	Mean    float64           `json:"mean"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Mean: h.Mean(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
	s.Buckets = nonEmptyBuckets(&h.counts)
	return s
}

// nonEmptyBuckets lists the non-empty buckets in one allocation of exactly
// their number (none for an empty histogram): snapshots are taken per host
// per sample, and growing the list by append cost four or five.
func nonEmptyBuckets(counts *[numBuckets]uint64) []HistogramBucket {
	n := 0
	for _, c := range counts {
		if c != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]HistogramBucket, 0, n)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		out = append(out, HistogramBucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// String renders the snapshot's headline statistics on one line, in the
// histogram's native unit — handy for -stats style CLI output.
func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}

// Diff returns the interval histogram: the samples observed since prev was
// taken. Min and Max still describe the whole run (the interval extremes
// are not recoverable); quantiles are recomputed from the interval buckets.
func (s HistogramSnapshot) Diff(prev HistogramSnapshot) HistogramSnapshot {
	var counts [numBuckets]uint64
	for _, b := range s.Buckets {
		counts[bucketIndex(b.Lo)] = b.Count
	}
	for _, b := range prev.Buckets {
		i := bucketIndex(b.Lo)
		if counts[i] >= b.Count {
			counts[i] -= b.Count
		} else {
			counts[i] = 0
		}
	}
	d := HistogramSnapshot{
		Count: s.Count - prev.Count,
		Sum:   s.Sum - prev.Sum,
		Min:   s.Min, Max: s.Max,
	}
	if d.Count > 0 {
		d.Mean = d.Sum / float64(d.Count)
	}
	d.P50 = quantileFromBuckets(counts[:], d.Count, 0.50)
	d.P90 = quantileFromBuckets(counts[:], d.Count, 0.90)
	d.P99 = quantileFromBuckets(counts[:], d.Count, 0.99)
	d.Buckets = nonEmptyBuckets(&counts)
	return d
}
