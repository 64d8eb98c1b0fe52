// Command hydrascope reads a run's artifacts: it renders each ft-TCP
// segment's hops off a capture, and an invariant audit report.
//
// Usage:
//
//	hydrascope report FILE.pcap
//	hydrascope audit FILE [-fail-on-violation]
//
// report reads a -pcap capture and prints per-hop residence: redirector
// in, each fan-out step, multicast → each replica's wire deposit, and each
// acknowledgment-chain hop. The Table-2 fail-over phases are the
// narration's and -stats-json's.
//
// audit loads a protocol-invariant audit report (written by the -audit
// flag on hydranet-sim, failover and the testbed) and renders the verdict,
// the per-rule evaluation census, the event mix and any retained forensic
// violation records. -fail-on-violation exits 1 when the run was dirty, so
// CI can gate on protocol correctness.
package main

import (
	"flag"
	"fmt"
	"os"

	"hydranet/internal/capture"
	"hydranet/internal/scope"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  hydrascope report FILE.pcap                  render each ft-TCP segment's hops
  hydrascope audit FILE [-fail-on-violation]   render an invariant audit report
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
	default:
		fmt.Fprintf(os.Stderr, "hydrascope: unknown subcommand %q\n", os.Args[1])
		usage()
	}
}

func report(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	pcap, err := capture.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	scope.WriteHops(os.Stdout, scope.Timelines(pcap))
}

func audit(args []string) {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	failOnViolation := fs.Bool("fail-on-violation", false, "exit 1 when the audited run recorded any violation")
	// Re-parse past the positional so trailing flags work.
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hydrascope: %v\n", err)
	os.Exit(2)
}
