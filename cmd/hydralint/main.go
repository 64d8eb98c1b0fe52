// Command hydralint runs the hydranet determinism analyzer over Go packages:
//
//	go run ./cmd/hydralint ./...
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
	"hydranet/internal/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	a := determinism.Analyzer
	fs := flag.NewFlagSet("hydralint", flag.ExitOnError)
	timing := fs.Bool("time", false, "report the analyzer's wall time on stderr")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: hydralint [flags] [packages]\n\n%s: %s\n\nFlags:\n", a.Name, a.Doc)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
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
	var spent time.Duration
	for _, pkg := range pkgs {
		pass := lint.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, &diags)
		start := time.Now()
		err := a.Run(pass)
		spent += time.Since(start)
		if err != nil {
			fmt.Fprintf(stderr, "hydralint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
			return 1
		}
	}
	if *timing {
		fmt.Fprintf(stderr, "hydralint: %-12s %s\n", a.Name, spent.Round(time.Microsecond))
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
