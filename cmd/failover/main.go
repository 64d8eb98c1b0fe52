// Command failover measures HydraNet-FT failure detection and fail-over
// latency (ablation A1): a client streams through a replicated echo
// service, the primary is killed mid-stream, and the tool reports how long
// the redirector took to reconfigure and how long until the client's byte
// stream resumed — swept over the failure estimator's retransmission
// threshold (the paper's Section 4.3 trade-off).
//
// Every threshold is its own run with its own artifacts: a file named by an
// observer flag gets -t<threshold> before its extension.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"hydranet/internal/sweep"
	"hydranet/internal/testbed"
)

// row is one threshold's result in -json output (durations in milliseconds).
type row struct {
	Threshold      int     `json:"threshold"`
	DetectMS       float64 `json:"detect_ms"`
	ResumeMS       float64 `json:"resume_ms"`
	Suspicions     uint64  `json:"suspicions"`
	FalseReconfigs int     `json:"false_reconfigs"`
	ClientError    string  `json:"client_error,omitempty"`
	Violations     int     `json:"violations,omitempty"`
	observeErr     error
}

func main() {
	backups := flag.Int("backups", 1, "number of backup replicas")
	seed := flag.Int64("seed", 1, "simulation seed")
	loss := flag.Float64("loss", 0, "link loss probability (for false-positive measurement)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of the table")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations (each threshold is an independent run)")
	observe, startPprof := testbed.ObserverFlags(flag.CommandLine,
		"each threshold's run writes its own files: run.pcap becomes run-t<threshold>.pcap")
	flag.Parse()

	fatal := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "failover: %s: %v\n", what, err)
			os.Exit(1)
		}
	}
	stopPprof, err := startPprof()
	fatal("pprof", err)

	thresholds := []int{1, 2, 3, 4, 6, 8}
	rows := sweep.Map(*parallel, len(thresholds), func(i int) row {
		res := testbed.MeasureFailover(testbed.FailoverConfig{
			Threshold: thresholds[i],
			Backups:   *backups,
			Seed:      *seed,
			Loss:      *loss,
			Observe:   observe.Suffixed(fmt.Sprintf("-t%d", thresholds[i])),
		})
		r := row{
			Threshold:      thresholds[i],
			DetectMS:       res.Detected.Seconds() * 1000,
			ResumeMS:       res.Resumed.Seconds() * 1000,
			Suspicions:     res.Suspicions,
			FalseReconfigs: res.FalseReconfigs,
			Violations:     res.Violations,
			observeErr:     res.ObserveErr,
		}
		if res.ClientError != nil {
			r.ClientError = res.ClientError.Error()
		}
		return r
	})

	totalViolations := 0
	for _, r := range rows {
		fatal(fmt.Sprintf("threshold %d", r.Threshold), r.observeErr)
		totalViolations += r.Violations
	}
	// finish stops the runtime profiles and turns violations into the exit
	// status.
	finish := func() {
		fatal("pprof", stopPprof())
		if totalViolations > 0 {
			os.Exit(1)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal("-json", enc.Encode(map[string]any{
			"backups": *backups, "seed": *seed, "loss": *loss, "results": rows,
		}))
		finish()
		return
	}

	fmt.Printf("HydraNet-FT fail-over latency vs detection threshold (%d backup(s), seed %d)\n\n",
		*backups, *seed)
	w := tabwriter.NewWriter(os.Stdout, 8, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "threshold\tdetect [ms]\tresume [ms]\tsuspicions\tfalse reconfigs\t")
	for _, r := range rows {
		if r.ClientError != "" {
			fmt.Fprintf(w, "%d\tclient connection failed: %s\t\t\t\t\n", r.Threshold, r.ClientError)
			continue
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t\n", r.Threshold,
			ms(time.Duration(r.DetectMS*float64(time.Millisecond))),
			ms(time.Duration(r.ResumeMS*float64(time.Millisecond))),
			r.Suspicions, r.FalseReconfigs)
	}
	w.Flush()
	fmt.Println("\ndetect: crash → redirector reconfiguration; resume: crash → first new byte at the client")
	if observe.Invariants || observe.Audit != "" {
		if totalViolations > 0 {
			fmt.Printf("invariants: %d VIOLATIONS across the sweep\n", totalViolations)
		} else {
			fmt.Println("invariants: clean across the sweep")
		}
	}
	finish()
}

func ms(d time.Duration) string {
	if d == 0 {
		return "never"
	}
	return fmt.Sprintf("%.0f", d.Seconds()*1000)
}
