// Command hydralint runs the hydranet static-invariant analyzers (framepool,
// determinism) over Go packages:
//
//	go run ./cmd/hydralint ./...
//	go run ./cmd/hydralint -determinism=false ./...
//	go run ./cmd/hydralint -time ./...
//
// Exit status: 0 when clean, 1 on an internal or load error, 2 when
// diagnostics were reported (the go vet convention).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hydranet/internal/lint"
	"hydranet/internal/lint/determinism"
	"hydranet/internal/lint/framepool"
	"hydranet/internal/lint/load"
)

var analyzers = []*lint.Analyzer{
	framepool.Analyzer,
	determinism.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hydralint", flag.ExitOnError)
	timing := fs.Bool("time", false, "report per-analyzer wall time on stderr")
	enabled := map[string]*bool{}
	for _, a := range analyzers {
		enabled[a.Name] = fs.Bool(a.Name, true, "run the "+a.Name+" analyzer: "+a.Doc)
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: hydralint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	var active []*lint.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	if len(active) == 0 {
		fmt.Fprintln(stderr, "hydralint: every analyzer is disabled")
		return 1
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "hydralint:", err)
		return 1
	}
	pkgs, err := load.Packages(cwd, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "hydralint:", err)
		return 1
	}

	var diags []lint.Diagnostic
	spent := map[string]time.Duration{}
	for _, pkg := range pkgs {
		for _, a := range active {
			pass := lint.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, &diags)
			start := time.Now()
			err := a.Run(pass)
			spent[a.Name] += time.Since(start)
			if err != nil {
				fmt.Fprintf(stderr, "hydralint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				return 1
			}
		}
	}
	if *timing {
		for _, a := range active {
			fmt.Fprintf(stderr, "hydralint: %-12s %s\n", a.Name, spent[a.Name].Round(time.Microsecond))
		}
	}
	lint.SortDiagnostics(diags)
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", relativize(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// relativize shortens path to be relative to base when it lies below it.
func relativize(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
