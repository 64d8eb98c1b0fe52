// Package metrics provides the small statistics toolkit the experiment
// harness uses: streaming summaries (mean, deviation, extremes) for
// multi-seed runs, and aligned-table rendering for the CLI tools.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Summary accumulates scalar samples.
type Summary struct {
	samples []float64
}

// Add appends a sample.
func (s *Summary) Add(x float64) {
	s.samples = append(s.samples, x)
}

// N returns the number of samples.
func (s *Summary) N() int { return len(s.samples) }

// Mean returns the arithmetic mean (0 with no samples).
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.samples {
		sum += x
	}
	return sum / float64(len(s.samples))
}

// Std returns the sample standard deviation (0 with fewer than 2 samples).
func (s *Summary) Std() float64 {
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	acc := 0.0
	for _, x := range s.samples {
		d := x - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(n-1))
}

// Min returns the smallest sample (0 with no samples).
func (s *Summary) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, x := range s.samples[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest sample (0 with no samples).
func (s *Summary) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, x := range s.samples[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// String renders "mean ± std (n=N)".
func (s *Summary) String() string {
	if s.N() <= 1 {
		return fmt.Sprintf("%.1f", s.Mean())
	}
	return fmt.Sprintf("%.1f ± %.1f", s.Mean(), s.Std())
}

// Table renders aligned columns for CLI output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.header) {
		cells = append(cells, "")
	}
	t.rows = append(t.rows, cells)
}

// String renders the table, right-aligning every column.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
