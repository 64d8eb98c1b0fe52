// Package scope is hydrascope's analysis engine: it loads series exports
// and audit reports, renders a failover timeline report aligned to the
// paper's Table-2 phases, reads each ft-TCP segment's hops off a capture,
// and diffs two runs within a tolerance — the regression gate CI runs.
//
// Unlike internal/series it runs offline, after the simulation, so it is
// deliberately outside the determinism fence: it sorts whatever it loads
// and owns its own output stability.
package scope

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"hydranet/internal/series"
)

// Run is one loaded series export.
type Run struct {
	// Path is where the run was loaded from ("" for readers).
	Path string
	// Meta is the run header.
	Meta series.Meta
	// Series holds every series, in export (creation) order.
	Series []series.Data

	byName map[string]int
}

// Get returns the named series (nil if absent).
func (r *Run) Get(name string) *series.Data {
	if i, ok := r.byName[name]; ok {
		return &r.Series[i]
	}
	return nil
}

// Names returns every series name in export order.
func (r *Run) Names() []string {
	out := make([]string, len(r.Series))
	for i := range r.Series {
		out[i] = r.Series[i].Name
	}
	return out
}

func (r *Run) index() {
	r.byName = make(map[string]int, len(r.Series))
	for i := range r.Series {
		r.byName[r.Series[i].Name] = i
	}
}

// LoadRunFile loads a series export.
func LoadRunFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	run, err := LoadRun(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	run.Path = path
	return run, nil
}

// LoadRun loads a series export (series.WriteJSONL's JSON lines) from r.
func LoadRun(r io.Reader) (*Run, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("meta line: %w", err)
		}
		return nil, errors.New("empty file")
	}
	run := &Run{}
	if err := json.Unmarshal(sc.Bytes(), &run.Meta); err != nil {
		return nil, fmt.Errorf("meta line: %w", err)
	}
	if run.Meta.Version != series.FormatVersion {
		return nil, fmt.Errorf("series format v%d, this build reads v%d",
			run.Meta.Version, series.FormatVersion)
	}
	for line := 2; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var d series.Data
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		run.Series = append(run.Series, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	run.index()
	return run, nil
}
