// Command hydrascope analyzes exported HydraNet-FT telemetry: it renders a
// failover timeline report from a series export (with each ft-TCP
// segment's hops read off a capture), renders an invariant audit report,
// and diffs the series exports of two runs within a tolerance,
// exiting non-zero on regression so CI can gate on it.
//
// Usage:
//
//	hydrascope report RUN [-pcap FILE]
//	hydrascope audit FILE [-fail-on-violation]
//	hydrascope diff A B [-tol 0.02]
//
// report loads a -series export (JSON lines) and prints the run summary:
// the Table-2 failover phase timeline with per-phase retransmission/RTO/
// deposit activity, and a sorted per-series table.
// -pcap adds per-hop residence read off a capture of the same run:
// redirector in, each fan-out step, multicast → each replica's wire
// deposit, and each acknowledgment-chain hop.
//
// audit loads a protocol-invariant audit report (written by the -audit
// flag on hydranet-sim, failover and the testbed) and renders the verdict,
// the per-rule evaluation census, the event mix and any retained forensic
// violation records. -fail-on-violation exits 1 when the run was dirty, so
// CI can gate on protocol correctness the same way diff gates on
// performance.
//
// diff compares the series exports of two runs: per-series run aggregates
// (counter totals, gauge mean/max) plus the failover phase durations. Any
// difference beyond tolerance is a regression: exit 1. Identical-seed runs
// diff clean and exit 0.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"hydranet/internal/capture"
	"hydranet/internal/scope"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  hydrascope report RUN [-pcap FILE]           render a run report
  hydrascope audit FILE [-fail-on-violation]   render an invariant audit report
  hydrascope diff A B [-tol 0.02]              diff two runs; exit 1 on regression
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "report":
		report(os.Args[2:])
	case "audit":
		audit(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "hydrascope: unknown subcommand %q\n", os.Args[1])
		usage()
	}
}

func report(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	pcapPath := fs.String("pcap", "", "also read each ft-TCP segment's hops off this capture of the run")
	// As in diff: re-parse past the positional so trailing flags work.
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) > 1 {
		fs.Parse(rest[1:])
		if fs.NArg() != 0 {
			usage()
		}
	}
	if len(rest) < 1 {
		usage()
	}
	run, err := scope.LoadRunFile(rest[0])
	if err != nil {
		fatal(err)
	}
	var pcap *capture.File
	if *pcapPath != "" {
		if pcap, err = capture.ReadFile(*pcapPath); err != nil {
			fatal(err)
		}
	}
	if err := scope.WriteReport(os.Stdout, run); err != nil {
		fatal(err)
	}
	if pcap != nil {
		scope.WriteHops(os.Stdout, scope.Timelines(pcap))
	}
}

func audit(args []string) {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	failOnViolation := fs.Bool("fail-on-violation", false, "exit 1 when the audited run recorded any violation")
	// As in diff: re-parse past the positional so trailing flags work.
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) > 1 {
		fs.Parse(rest[1:])
		if fs.NArg() != 0 {
			usage()
		}
	}
	if len(rest) < 1 {
		usage()
	}
	r, err := scope.LoadAuditFile(rest[0])
	if err != nil {
		fatal(err)
	}
	if err := scope.WriteAuditReport(os.Stdout, r); err != nil {
		fatal(err)
	}
	if *failOnViolation && !r.Clean {
		os.Exit(1)
	}
}

func diff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	tol := fs.Float64("tol", 0.02, "relative tolerance before a difference is a regression")
	// Accept flags on either side of the two positionals: stdlib flag stops
	// at the first non-flag argument, so "diff A B -tol 0.05" needs the
	// tail re-parsed.
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) > 2 {
		fs.Parse(rest[2:])
		if fs.NArg() != 0 {
			usage()
		}
	}
	if len(rest) < 2 {
		usage()
	}
	// NaN compares false with everything, so it would pass any difference.
	if math.IsNaN(*tol) || math.IsInf(*tol, 0) || *tol < 0 {
		fatal(fmt.Errorf("-tol %v: want a finite number, 0 or more", *tol))
	}
	pathA, pathB := rest[0], rest[1]

	a, err := scope.LoadRunFile(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := scope.LoadRunFile(pathB)
	if err != nil {
		fatal(err)
	}
	findings := scope.DiffRuns(a, b, *tol)
	if len(findings) == 0 {
		fmt.Printf("hydrascope: series diff clean (tol %.3g): %s == %s\n", *tol, pathA, pathB)
		return
	}
	fmt.Printf("hydrascope: %d series regression(s) beyond tol %.3g (A=%s B=%s):\n",
		len(findings), *tol, pathA, pathB)
	for _, f := range findings {
		fmt.Printf("  %s\n", f)
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hydrascope: %v\n", err)
	os.Exit(2)
}
