// Package scope is hydrascope's analysis engine: it loads series exports
// (JSONL or CSV), span timelines and audit reports, renders a failover
// timeline report aligned to the paper's Table-2 phases, and diffs two runs
// within a tolerance — the regression gate CI runs.
//
// Unlike internal/series it runs offline, after the simulation, so it is
// deliberately outside the determinism fence: it sorts whatever it loads
// and owns its own output stability.
package scope

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"hydranet/internal/series"
)

// Run is one loaded series export.
type Run struct {
	// Path is where the run was loaded from ("" for readers).
	Path string
	// Meta is the run header. CSV exports only carry cadence/ticks/seed.
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

// LoadRunFile loads a series export, sniffing JSONL vs CSV from content.
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

// LoadRun loads a series export from r, sniffing the format: JSONL starts
// with a '{' meta object, CSV with the '#' comment header.
func LoadRun(r io.Reader) (*Run, error) {
	br := bufio.NewReader(r)
	first, err := br.Peek(1)
	if err != nil {
		return nil, fmt.Errorf("empty series input: %w", err)
	}
	switch first[0] {
	case '{':
		return loadJSONL(br)
	case '#':
		return loadCSV(br)
	default:
		return nil, fmt.Errorf("unrecognized series format (want JSONL '{' or CSV '#' header)")
	}
}

func loadJSONL(br *bufio.Reader) (*Run, error) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, fmt.Errorf("missing meta line: %w", sc.Err())
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

// loadCSV reconstructs series from the long-form export. CSV drops the
// run-wide aggregates, so they are recomputed over the retained window —
// document-grade only; diffs should use JSONL.
func loadCSV(br *bufio.Reader) (*Run, error) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	run := &Run{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			parseCSVHeader(text, &run.Meta)
			continue
		}
		if strings.HasPrefix(text, "name,") {
			continue // column header
		}
		fields := strings.Split(text, ",")
		if len(fields) != 5 {
			return nil, fmt.Errorf("line %d: want 5 CSV fields, got %d", line, len(fields))
		}
		tns, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: t_ns: %w", line, err)
		}
		v, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: value: %w", line, err)
		}
		name := fields[0]
		i, ok := -1, false
		if run.byName != nil {
			i, ok = run.byName[name]
		}
		if !ok {
			run.Series = append(run.Series, series.Data{
				Name: name, Kind: fields[1], Unit: fields[2],
			})
			i = len(run.Series) - 1
			if run.byName == nil {
				run.byName = make(map[string]int)
			}
			run.byName[name] = i
		}
		d := &run.Series[i]
		val := v
		d.Points = append(d.Points, series.Point{T: time.Duration(tns), V: val})
		d.Count++
		d.Total += val
		if d.Count == 1 || val > d.Max {
			d.Max = val
		}
		d.Last = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range run.Series {
		d := &run.Series[i]
		if d.Count > 0 {
			d.Mean = d.Total / float64(d.Count)
		}
	}
	if run.Meta.Version == 0 {
		return nil, fmt.Errorf("missing hydranet-series CSV header")
	}
	return run, nil
}

func parseCSVHeader(text string, meta *series.Meta) {
	if !strings.HasPrefix(text, "# hydranet-series v") {
		return
	}
	for _, tok := range strings.Fields(text[1:]) {
		switch {
		case strings.HasPrefix(tok, "hydranet-series"):
		case strings.HasPrefix(tok, "v"):
			if n, err := strconv.Atoi(tok[1:]); err == nil {
				meta.Version = n
			}
		case strings.HasPrefix(tok, "every_ns="):
			if n, err := strconv.ParseInt(tok[len("every_ns="):], 10, 64); err == nil {
				meta.Every = time.Duration(n)
			}
		case strings.HasPrefix(tok, "ticks="):
			if n, err := strconv.ParseUint(tok[len("ticks="):], 10, 64); err == nil {
				meta.Ticks = n
			}
		case strings.HasPrefix(tok, "seed="):
			if n, err := strconv.ParseInt(tok[len("seed="):], 10, 64); err == nil {
				meta.Seed = n
			}
		}
	}
}
