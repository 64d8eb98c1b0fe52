package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Std() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary not zero-valued")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample std of this classic dataset is ~2.138.
	if got := s.Std(); math.Abs(got-2.138) > 0.01 {
		t.Errorf("Std = %v, want ~2.138", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestMeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		var s Summary
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		const eps = 1e-6
		return s.Mean() >= s.Min()-eps && s.Mean() <= s.Max()+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(5)
	if got := s.String(); got != "5.0" {
		t.Errorf("single-sample String = %q", got)
	}
	s.Add(7)
	if got := s.String(); !strings.Contains(got, "±") {
		t.Errorf("multi-sample String = %q, want ± form", got)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("size", "throughput")
	tb.AddRow("16", "29.1")
	tb.AddRow("1024", "546.0")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines", len(lines))
	}
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Errorf("columns not aligned:\n%s", out)
	}
	// Short rows are padded, long rows don't panic.
	tb.AddRow("1")
	_ = tb.String()
}
