// Command failover measures HydraNet-FT failure detection and fail-over
// latency (ablation A1): a client streams through a replicated echo
// service, the primary is killed mid-stream, and the tool reports how long
// the redirector took to reconfigure and how long until the client's byte
// stream resumed — swept over the failure estimator's retransmission
// threshold (the paper's Section 4.3 trade-off).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"hydranet/internal/prof"
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
}

func main() {
	backups := flag.Int("backups", 1, "number of backup replicas")
	seed := flag.Int64("seed", 1, "simulation seed")
	loss := flag.Float64("loss", 0, "link loss probability (for false-positive measurement)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of the table")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations (each threshold is an independent run)")
	pcapPrefix := flag.String("pcap", "", "capture each run to PREFIX-t<threshold>.pcap")
	flightPrefix := flag.String("flight", "", "flight-record each run; dump PREFIX-t<threshold>.{pcap,json} when the failover probe fires")
	spansPrefix := flag.String("spans", "", "write each run's ft-TCP span timeline to PREFIX-t<threshold>.json")
	seriesPrefix := flag.String("series", "", "export each run's time series (with health verdicts) to PREFIX-t<threshold>.jsonl")
	sampleEvery := flag.Duration("sample-every", 0, "telemetry sampling cadence for -series (default 100ms of virtual time)")
	profPrefix := flag.String("prof", "", "write each run's hydraprof profile to PREFIX-t<threshold>.prof.json; render with hydrascope profile")
	invariants := flag.Bool("invariants", false, "run the online protocol-invariant monitor in every run; exit 1 on any violation")
	auditPrefix := flag.String("audit", "", "write each run's invariant audit report to PREFIX-t<threshold>.audit.json (implies -invariants)")
	cpuProfile := flag.String("cpuprofile", "", "write a Go runtime CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a Go runtime heap profile to this file at exit")
	flag.Parse()

	stopPprof, err := prof.StartPprof(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "failover: pprof: %v\n", err)
		os.Exit(1)
	}

	thresholds := []int{1, 2, 3, 4, 6, 8}
	rows := sweep.Map(*parallel, len(thresholds), func(i int) row {
		cfg := testbed.FailoverConfig{
			Threshold: thresholds[i],
			Backups:   *backups,
			Seed:      *seed,
			Loss:      *loss,
		}
		// One capture file set per threshold: the sweep runs each threshold
		// as an independent simulation, possibly in parallel.
		if *pcapPrefix != "" {
			cfg.PcapPath = fmt.Sprintf("%s-t%d.pcap", *pcapPrefix, thresholds[i])
		}
		if *flightPrefix != "" {
			cfg.FlightPrefix = fmt.Sprintf("%s-t%d", *flightPrefix, thresholds[i])
		}
		if *spansPrefix != "" {
			cfg.SpansPath = fmt.Sprintf("%s-t%d.json", *spansPrefix, thresholds[i])
		}
		if *seriesPrefix != "" {
			cfg.SeriesPath = fmt.Sprintf("%s-t%d.jsonl", *seriesPrefix, thresholds[i])
			cfg.SampleEvery = *sampleEvery
		}
		if *profPrefix != "" {
			cfg.ProfilePath = fmt.Sprintf("%s-t%d.prof.json", *profPrefix, thresholds[i])
		}
		cfg.Invariants = *invariants
		if *auditPrefix != "" {
			cfg.AuditPath = fmt.Sprintf("%s-t%d.audit.json", *auditPrefix, thresholds[i])
		}
		res := testbed.MeasureFailover(cfg)
		r := row{
			Threshold:      thresholds[i],
			DetectMS:       res.Detected.Seconds() * 1000,
			ResumeMS:       res.Resumed.Seconds() * 1000,
			Suspicions:     res.Suspicions,
			FalseReconfigs: res.FalseReconfigs,
			Violations:     res.Violations,
		}
		if res.ClientError != nil {
			r.ClientError = res.ClientError.Error()
		}
		return r
	})

	totalViolations := 0
	for _, r := range rows {
		totalViolations += r.Violations
	}

	finishPprof := func() {
		if err := stopPprof(); err != nil {
			fmt.Fprintf(os.Stderr, "failover: pprof: %v\n", err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"backups": *backups, "seed": *seed, "loss": *loss, "results": rows,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "failover: %v\n", err)
			os.Exit(1)
		}
		finishPprof()
		if totalViolations > 0 {
			os.Exit(1)
		}
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
	if *invariants || *auditPrefix != "" {
		if totalViolations > 0 {
			fmt.Printf("invariants: %d VIOLATIONS across the sweep\n", totalViolations)
		} else {
			fmt.Println("invariants: clean across the sweep")
		}
	}
	finishPprof()
	if totalViolations > 0 {
		os.Exit(1)
	}
}

func ms(d time.Duration) string {
	if d == 0 {
		return "never"
	}
	return fmt.Sprintf("%.0f", d.Seconds()*1000)
}
