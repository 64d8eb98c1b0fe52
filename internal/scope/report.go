package scope

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"hydranet/internal/series"
)

// phase is one window of the Table-2 decomposition; to == 0 means "until
// the end of the run".
type phase struct {
	name     string
	from, to time.Duration
}

// windowSum sums a counter series' retained points inside [from, to).
// to == 0 means no upper bound.
func windowSum(d *series.Data, from, to time.Duration) float64 {
	var sum float64
	for _, p := range d.Points {
		if p.T < from {
			continue
		}
		if to != 0 && p.T >= to {
			continue
		}
		sum += p.V
	}
	return sum
}

// WriteReport renders a run: header, failover timeline aligned to the
// Table-2 phases with per-phase series activity, then a per-series summary
// sorted by name.
func WriteReport(w io.Writer, run *Run) error {
	var end time.Duration
	for i := range run.Series {
		if pts := run.Series[i].Points; len(pts) > 0 {
			if t := pts[len(pts)-1].T; t > end {
				end = t
			}
		}
	}
	fmt.Fprintf(w, "hydranet series run")
	if run.Path != "" {
		fmt.Fprintf(w, " %s", run.Path)
	}
	fmt.Fprintf(w, ": %d series, %d ticks every %v (through %v), seed %d\n",
		len(run.Series), run.Meta.Ticks, run.Meta.Every, end, run.Meta.Seed)

	if f := run.Meta.Failover; f != nil {
		fmt.Fprintf(w, "\nfailover timeline (Table-2 phases):\n")
		fmt.Fprintf(w, "  crash            %v\n", f.CrashAt)
		fmt.Fprintf(w, "  detection        %v   (crash → suspicion)\n", f.Detection)
		fmt.Fprintf(w, "  reconfiguration  %v   (suspicion → promotion)\n", f.Reconfiguration)
		fmt.Fprintf(w, "  client stall     %v   (crash → first byte, complete: %v)\n",
			f.ClientStall, f.Complete)

		ph := []phase{{name: "pre-crash", from: 0, to: f.CrashAt}}
		if f.SuspicionAt > 0 {
			ph = append(ph, phase{name: "detection", from: f.CrashAt, to: f.SuspicionAt})
			if f.PromotionAt > 0 {
				ph = append(ph, phase{name: "reconfig", from: f.SuspicionAt, to: f.PromotionAt})
				ph = append(ph, phase{name: "recovery", from: f.PromotionAt, to: 0})
			}
		} else {
			ph = append(ph, phase{name: "post-crash", from: f.CrashAt, to: 0})
		}

		// Per-phase activity over the net: retransmissions, RTO fires and
		// deposited bytes, summed across every host's counter series.
		sumSuffix := func(suffix string, from, to time.Duration) float64 {
			var sum float64
			for i := range run.Series {
				d := &run.Series[i]
				if d.Kind == "counter" && strings.HasSuffix(d.Name, suffix) {
					sum += windowSum(d, from, to)
				}
			}
			return sum
		}
		fmt.Fprintf(w, "\n  %-10s %-22s %12s %8s %14s\n",
			"phase", "window", "retransmits", "rto", "deposited[B]")
		for _, p := range ph {
			window := fmt.Sprintf("%v – %v", p.from, p.to)
			if p.to == 0 {
				window = fmt.Sprintf("%v – end", p.from)
			}
			fmt.Fprintf(w, "  %-10s %-22s %12.0f %8.0f %14.0f\n",
				p.name, window,
				sumSuffix(".retransmits", p.from, p.to)+sumSuffix(".peer_retransmits", p.from, p.to),
				sumSuffix(".rto_events", p.from, p.to),
				sumSuffix(".deposited_bytes", p.from, p.to))
		}
	}

	// Health verdicts, if the run scored any.
	var healthNames []string
	for i := range run.Series {
		if strings.HasPrefix(run.Series[i].Name, "health.") {
			healthNames = append(healthNames, run.Series[i].Name)
		}
	}
	if len(healthNames) > 0 {
		sort.Strings(healthNames)
		fmt.Fprintf(w, "\nreplica health (0 healthy / 1 degraded / 2 dead):\n")
		for _, name := range healthNames {
			d := run.Get(name)
			fmt.Fprintf(w, "  %-24s last=%v peak=%v\n",
				strings.TrimPrefix(name, "health."),
				series.Verdict(d.Last), series.Verdict(d.Max))
		}
	}

	fmt.Fprintf(w, "\nseries (sorted; counters report totals, gauges mean/max):\n")
	names := run.Names()
	sort.Strings(names)
	fmt.Fprintf(w, "  %-52s %-7s %7s %14s %14s\n", "name", "kind", "n", "total|mean", "max")
	for _, name := range names {
		d := run.Get(name)
		agg := d.Total
		if d.Kind == "gauge" {
			agg = d.Mean
		}
		fmt.Fprintf(w, "  %-52s %-7s %7d %14.6g %14.6g\n", d.Name, d.Kind, d.Count, agg, d.Max)
	}
	return nil
}
