package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the "percentile" is a handful of outliers.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by linear
// interpolation between closest ranks. Above the median it refuses a
// percentile with fewer than minBeyond samples beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	if p > 50 && float64(n)*(100-p)/100 < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d beyond it", p, n, minBeyond)
	}
	return interpolate(sorted, p/100), nil
}

// interpolate reads the q-quantile (0..1) of a non-empty sorted slice by
// linear interpolation between closest ranks.
func interpolate(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

// tailPercentile is the highest percentile of the ladder that n samples
// support; the median when none does.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// latency summarises one sample set of simulated times.
type latency struct {
	P50, Tail float64 // milliseconds of virtual time
	TailPct   float64 // which percentile Tail is
	Samples   int
}

func summarize(ms []float64) latency {
	sort.Float64s(ms)
	l := latency{Samples: len(ms), TailPct: tailPercentile(len(ms))}
	if len(ms) == 0 {
		return l
	}
	l.P50, _ = percentile(ms, 50)
	l.Tail, _ = percentile(ms, l.TailPct)
	return l
}

// bucket is one histogram bucket: count samples in [lo, hi).
type bucket struct {
	lo, hi float64
	count  uint64
}

// bucketQuantile estimates the q-quantile of bucketed samples by linear
// interpolation within the bucket that holds it.
func bucketQuantile(buckets []bucket, q float64) float64 {
	var total uint64
	for _, b := range buckets {
		total += b.count
	}
	rank, cum := q*float64(total), 0.0
	for _, b := range buckets {
		next := cum + float64(b.count)
		if next >= rank && b.count > 0 {
			return b.lo + (b.hi-b.lo)*(rank-cum)/float64(b.count)
		}
		cum = next
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of vs by
// the same interpolation as percentile, without the tail guard: these
// describe the spread of a few repetitions, they are not tail latencies.
func quartiles(vs []float64) (q1, med, q3 float64) {
	if len(vs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return interpolate(s, 0.25), interpolate(s, 0.5), interpolate(s, 0.75)
}

func minimum(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// digest hashes named exact values in name order. Two runs whose simulated
// results and counts agree to the last bit have the same digest.
func digest(values map[string]float64) string {
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, k := range names {
		fmt.Fprintf(h, "%s=%x\n", k, values[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
