package series

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSeriesRingEviction(t *testing.T) {
	s := newSeries("x", Gauge, "")
	const n = ringCapacity + 6
	for i := 0; i < n; i++ {
		s.Observe(time.Duration(i)*time.Millisecond, float64(i))
	}
	if s.Len() != ringCapacity || s.Cap() != ringCapacity {
		t.Fatalf("len=%d cap=%d, want %d/%d", s.Len(), s.Cap(), ringCapacity, ringCapacity)
	}
	if s.Count() != n {
		t.Fatalf("count=%d, want %d", s.Count(), n)
	}
	// Retained window is the last ringCapacity points, oldest first.
	for i := 0; i < ringCapacity; i++ {
		p := s.At(i)
		want := float64(6 + i)
		if p.V != want || p.T != time.Duration(6+i)*time.Millisecond {
			t.Fatalf("At(%d)=%+v, want v=%v", i, p, want)
		}
	}
	if s.Total() != n*(n-1)/2 || s.Max() != n-1 || s.Last() != n-1 {
		t.Fatalf("total=%v max=%v last=%v, want %d/%d/%d", s.Total(), s.Max(), s.Last(), n*(n-1)/2, n-1, n-1)
	}
	if got := s.Mean(); got != float64(n-1)/2 {
		t.Fatalf("mean=%v, want %v", got, float64(n-1)/2)
	}
	pts := s.Points(nil)
	if len(pts) != ringCapacity || pts[0].V != 6 || pts[ringCapacity-1].V != n-1 {
		t.Fatalf("Points: %d points from %v to %v", len(pts), pts[0], pts[len(pts)-1])
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	s := newSeries("x", Counter, "")
	var i int
	allocs := testing.AllocsPerRun(1000, func() {
		s.Observe(time.Duration(i), float64(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestSetOrderAndIdentity(t *testing.T) {
	set := NewSet()
	c := set.Counter("b.count", "segments")
	g := set.Gauge("a.depth", "bytes")
	if set.Counter("b.count", "segments") != c {
		t.Fatal("Counter did not return the existing series")
	}
	if set.Get("a.depth") != g || set.Get("missing") != nil {
		t.Fatal("Get mismatch")
	}
	// Iteration follows creation order, not name order.
	var names []string
	set.Each(func(s *Series) { names = append(names, s.Name()) })
	if len(names) != 2 || names[0] != "b.count" || names[1] != "a.depth" {
		t.Fatalf("order=%v, want [b.count a.depth]", names)
	}
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	set := NewSet()
	c := set.Counter("retransmits", "segments")
	c.Observe(100*time.Millisecond, 2)
	c.Observe(200*time.Millisecond, 3)
	var buf bytes.Buffer
	meta := Meta{Every: 100 * time.Millisecond, Ticks: 2, Seed: 7}
	if err := WriteJSONL(&buf, meta, set); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no meta line")
	}
	var gotMeta Meta
	if err := json.Unmarshal(sc.Bytes(), &gotMeta); err != nil {
		t.Fatal(err)
	}
	if gotMeta.Version != FormatVersion || gotMeta.Every != 100*time.Millisecond || gotMeta.Seed != 7 {
		t.Fatalf("meta=%+v", gotMeta)
	}
	if !sc.Scan() {
		t.Fatal("no series line")
	}
	var d Data
	if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Name != "retransmits" || d.Kind != "counter" || d.Total != 5 || len(d.Points) != 2 {
		t.Fatalf("data=%+v", d)
	}
	if d.Points[1].T != 200*time.Millisecond || d.Points[1].V != 3 {
		t.Fatalf("points=%+v", d.Points)
	}
}
