package scope

import (
	"fmt"
	"sort"
	"time"

	"hydranet/internal/series"
)

// Finding is one regression (or difference) between two runs.
type Finding struct {
	// Series is the series name ("failover" for the phase durations).
	Series string `json:"series"`
	// Field is which aggregate differed (total, mean, max, presence, ...).
	Field string `json:"field"`
	// A and B are the compared values (run A = baseline, run B = candidate).
	A float64 `json:"a"`
	B float64 `json:"b"`
	// Rel is the relative difference |a−b| / max(|a|,|b|).
	Rel float64 `json:"rel"`
	// Note carries presence-style findings with no numeric pair.
	Note string `json:"note,omitempty"`
}

// String renders the finding for the CLI.
func (f Finding) String() string {
	if f.Note != "" {
		return fmt.Sprintf("%-44s %-8s %s", f.Series, f.Field, f.Note)
	}
	return fmt.Sprintf("%-44s %-8s a=%.6g b=%.6g (%.1f%% apart)",
		f.Series, f.Field, f.A, f.B, 100*f.Rel)
}

// relDiff is the symmetric relative difference, 0 when both values are
// effectively zero.
func relDiff(a, b float64) float64 {
	da, db := a, b
	if da < 0 {
		da = -da
	}
	if db < 0 {
		db = -db
	}
	den := da
	if db > den {
		den = db
	}
	if den < 1e-9 {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / den
}

// DiffRuns compares two series exports. Counter series compare run totals
// and observation counts; gauge series compare run mean and max; a series
// present in only one run is a finding. The failover timelines (when both
// runs carry one) compare phase durations. tol is the relative tolerance:
// identical-seed runs differ by exactly nothing, so CI gates with a small
// tol and a regression is any finding returned.
func DiffRuns(a, b *Run, tol float64) []Finding {
	var out []Finding

	names := map[string]bool{}
	for _, d := range a.Series {
		names[d.Name] = true
	}
	for _, d := range b.Series {
		names[d.Name] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	check := func(name, field string, av, bv float64) {
		if rel := relDiff(av, bv); rel > tol {
			out = append(out, Finding{Series: name, Field: field, A: av, B: bv, Rel: rel})
		}
	}
	for _, name := range sorted {
		da, db := a.Get(name), b.Get(name)
		switch {
		case da == nil:
			out = append(out, Finding{Series: name, Field: "presence", Note: "only in run B"})
			continue
		case db == nil:
			out = append(out, Finding{Series: name, Field: "presence", Note: "only in run A"})
			continue
		}
		if da.Kind != db.Kind {
			out = append(out, Finding{Series: name, Field: "kind",
				Note: fmt.Sprintf("%s in run A, %s in run B", da.Kind, db.Kind)})
			continue
		}
		check(name, "count", float64(da.Count), float64(db.Count))
		if da.Kind == series.Counter.String() {
			check(name, "total", da.Total, db.Total)
		} else {
			check(name, "mean", da.Mean, db.Mean)
			check(name, "max", da.Max, db.Max)
		}
	}

	fa, fb := a.Meta.Failover, b.Meta.Failover
	switch {
	case fa == nil && fb == nil:
	case fa == nil:
		out = append(out, Finding{Series: "failover", Field: "presence", Note: "only in run B"})
	case fb == nil:
		out = append(out, Finding{Series: "failover", Field: "presence", Note: "only in run A"})
	default:
		phase := func(field string, av, bv time.Duration) {
			check("failover", field, float64(av), float64(bv))
		}
		phase("detection", fa.Detection, fb.Detection)
		phase("reconfig", fa.Reconfiguration, fb.Reconfiguration)
		phase("stall", fa.ClientStall, fb.ClientStall)
	}
	return out
}
