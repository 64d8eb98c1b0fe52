package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
	s := h.Snapshot()
	if s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 10, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-23.2) > 1e-9 {
		t.Errorf("Mean = %v, want 23.2", got)
	}
	// Quantiles are bucket-interpolated; they must stay within [min, max]
	// and be monotone in q.
	prev := h.Quantile(0)
	for q := 0.1; q <= 1.0; q += 0.1 {
		v := h.Quantile(q)
		if v < h.Min() || v > h.Max() {
			t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, v, h.Min(), h.Max())
		}
		if v < prev {
			t.Fatalf("Quantile not monotone at %v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Count() != 1 || h.Min() != 0 {
		t.Fatalf("negative observation not clamped: min=%v", h.Min())
	}
}

func TestHistogramQuantileWithinRange(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		var h Histogram
		n := 0
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Observe(math.Abs(v))
			n++
		}
		if n == 0 {
			return true
		}
		qq := math.Mod(math.Abs(q), 1)
		v := h.Quantile(qq)
		return v >= h.Min() && v <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		var h Histogram
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			h.Observe(math.Mod(math.Abs(x), 1e6))
		}
		if h.Count() == 0 {
			return true
		}
		eps := 1e-9 * (1 + h.Max())
		return h.Mean() >= h.Min()-eps && h.Mean() <= h.Max()+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramSnapshotDiff(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(4) // bucket [4,8)
	}
	first := h.Snapshot()
	for i := 0; i < 5; i++ {
		h.Observe(100) // bucket [64,128)
	}
	second := h.Snapshot()

	d := second.Diff(first)
	if d.Count != 5 {
		t.Fatalf("diff Count = %d, want 5", d.Count)
	}
	total := uint64(0)
	for _, b := range d.Buckets {
		total += b.Count
		if b.Count > 0 && b.Lo < 64 {
			t.Fatalf("diff kept old bucket %+v", b)
		}
	}
	if total != 5 {
		t.Fatalf("diff buckets sum to %d, want 5", total)
	}
	if d.P50 < 64 || d.P50 > 128 {
		t.Errorf("diff P50 = %v, want within [64,128]", d.P50)
	}
}
