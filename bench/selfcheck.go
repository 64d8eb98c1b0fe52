package main

import "fmt"

// selfcheckRow compares one metric of one workload between two sets of
// runs of the same binary.
type selfcheckRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// Worse is how far B is on the worse side of A, as a share of A;
	// negative when B is better.
	Worse float64 `json:"worse"`
	Bound float64 `json:"bound"` // 0: must be identical
	OK    bool    `json:"ok"`
}

type selfcheckReport struct {
	Rows     []selfcheckRow `json:"rows"`
	SetA     []result       `json:"set_a"`
	SetB     []result       `json:"set_b"`
	Problems []string       `json:"problems,omitempty"`
}

// selfcheck runs two full sets and requires every host metric of the second
// to be within its bound of the first, and every simulated result and exact
// count to be identical; then one repetition at seed+1 must change every
// sim_digest, which shows the inputs really come from the seed.
func (h *harness) selfcheck(selected []workload) (selfcheckReport, bool) {
	var rep selfcheckReport
	for _, w := range selected {
		rep.SetA = append(rep.SetA, h.timed(w))
	}
	for _, w := range selected {
		rep.SetB = append(rep.SetB, h.timed(w))
	}
	for i, a := range rep.SetA {
		b := rep.SetB[i]
		for _, r := range []result{a, b} {
			for _, p := range r.Problems {
				rep.Problems = append(rep.Problems, r.Workload+": "+p)
			}
		}
		for _, d := range endToEnd {
			row := selfcheckRow{Workload: a.Workload, Metric: d.name, Unit: d.unit, A: a.Metrics[d.name].Value, B: b.Metrics[d.name].Value}
			row.Worse = (row.B - row.A) / row.A
			if d.higher {
				row.Worse = -row.Worse
			}
			if d.host {
				row.Bound = d.bound
				row.OK = row.Worse <= d.bound
			} else {
				row.OK = row.A == row.B
			}
			rep.Rows = append(rep.Rows, row)
		}
		if a.SimDigest != b.SimDigest {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: sim_digest %s then %s for the same seed", a.Workload, a.SimDigest, b.SimDigest))
		}
	}
	other := &harness{seed: h.seed + 1, seconds: 0, spans: h.spans}
	for i, w := range selected {
		if r := other.timed(w); r.SimDigest == rep.SetA[i].SimDigest {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: seed %d and seed %d give the same sim_digest %s", w.name, h.seed, other.seed, r.SimDigest))
		}
	}

	fmt.Printf("\n%-15s %-13s %14s %14s %9s %8s\n", "workload", "metric", "set A", "set B", "worse by", "bound")
	for _, row := range rep.Rows {
		bound, verdict := "exact", "ok"
		if row.Bound > 0 {
			bound = fmt.Sprintf("%.1f%%", 100*row.Bound)
		}
		if !row.OK {
			verdict = "DISAGREES"
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s %s: %g then %g", row.Workload, row.Metric, row.A, row.B))
		}
		fmt.Printf("%-15s %-13s %14.6g %14.6g %8.2f%% %8s  %s\n", row.Workload, row.Metric, row.A, row.B, 100*row.Worse, bound, verdict)
	}
	for _, p := range rep.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
	return rep, len(rep.Problems) == 0
}
