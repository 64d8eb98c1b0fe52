package scope

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"hydranet/internal/invariant"
)

// LoadAuditFile loads an invariant-monitor audit report (written by the
// -audit flag on hydranet-sim, failover and the testbed).
func LoadAuditFile(path string) (*invariant.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r invariant.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Rules) == 0 {
		return nil, fmt.Errorf("%s: no rule census — not an audit report", path)
	}
	return &r, nil
}

// WriteAuditReport renders an audit report for the terminal: the verdict,
// the per-rule evaluation census, the observed event mix, and — when the
// run was dirty — every retained forensic violation record.
func WriteAuditReport(w io.Writer, r *invariant.Report) error {
	if r.Scenario != "" {
		fmt.Fprintf(w, "scenario: %s\n", r.Scenario)
	}
	verdict := "CLEAN"
	if !r.Clean {
		verdict = fmt.Sprintf("%d VIOLATION(S)", r.TotalViolations())
	}
	fmt.Fprintf(w, "verdict: %s — %d checks over %d events, %d frames (%d bytes)\n",
		verdict, r.Checks, r.Events, r.Frames, r.FrameBytes)
	if r.QuiesceChecked {
		fmt.Fprintf(w, "quiesce: checked, %d outstanding fabric frame(s)\n", r.OutstandingFrames)
	} else {
		fmt.Fprintln(w, "quiesce: not reached — frame conservation undecided")
	}

	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "rule\tchecks\tviolations\t")
	for _, rr := range r.Rules {
		fmt.Fprintf(tw, "%s\t%d\t%d\t\n", rr.Rule, rr.Checks, rr.Violations)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if len(r.EventCounts) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(tw, "event kind\tcount\t")
		for _, kc := range r.EventCounts {
			fmt.Fprintf(tw, "%s\t%d\t\n", kc.Kind, kc.Count)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(r.Violations) > 0 {
		fmt.Fprintf(w, "\nforensic records (%d retained):\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(w, "  %s\n", v)
		}
		if retained, total := uint64(len(r.Violations)), r.TotalViolations(); total > retained {
			fmt.Fprintf(w, "  ... %d further violation(s) counted but not retained\n", total-retained)
		}
	}
	return nil
}
