package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one interval of the harness's own work: bench → workload →
// repetition → setup / warmup / run / collect, and one per ledger batch.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for the root
	Name    string `json:"name"`
	Rep     int    `json:"repetition"` // 0 outside a repetition
	StartNs int64  `json:"start_ns"`   // since the recorder was made
	EndNs   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. The benchmark is
// one goroutine, so the open spans form a stack and the parent of a new
// span is whatever is open.
type spanRecorder struct {
	epoch time.Time
	spans []span
	open  []int // indices into spans
	rep   int   // the repetition in progress, 0 outside one
	reps  int   // repetitions begun so far
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// start opens a span under the innermost open one and returns the function
// that closes it.
func (r *spanRecorder) start(name string) (end func()) {
	s := span{ID: len(r.spans) + 1, Name: name, Rep: r.rep, StartNs: time.Since(r.epoch).Nanoseconds()}
	if len(r.open) > 0 {
		s.Parent = r.spans[r.open[len(r.open)-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, s)
	r.open = append(r.open, idx)
	return func() {
		r.spans[idx].EndNs = time.Since(r.epoch).Nanoseconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// repetition opens the span of a new repetition; spans started before its
// end carry its id.
func (r *spanRecorder) repetition(name string) (end func()) {
	r.reps++
	r.rep = r.reps
	endSpan := r.start(name)
	return func() {
		endSpan()
		r.rep = 0
	}
}

func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func noSpan(string) func() { return func() {} }
