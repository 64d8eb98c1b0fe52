// Command hydralint checks the simulator's bit-identical-replay contract:
// golden outputs, flight dumps and benchmark digests are only trustworthy
// because one seed gives one run. Its one check, determinism, forbids inside
// the simulation core packages:
//
//   - wall-clock and timer reads (time.Now, time.Sleep, ...), called or
//     taken as a function value
//   - the global math/rand and math/rand/v2 sources (the scheduler's
//     seeded *rand.Rand is the only sanctioned randomness), and crypto/rand
//   - ranging over a map (iteration order is randomized per run)
//   - goroutines and select statements (scheduling order is not part of
//     the virtual clock)
//
// An order-insensitive site — a commutative sum, a collect-then-sort loop —
// is excused by //hydralint:nondeterministic <reason>. A missing reason, an
// unknown directive and an excuse that excuses nothing are diagnostics in
// every package.
//
//	go run ./cmd/hydralint ./...
//	go run ./cmd/hydralint -time ./...
//
// Exit status: 0 when clean, 1 on a bad flag or a load error, 2 when
// diagnostics were reported (the go vet convention).
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hydralint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	timing := fs.Bool("time", false, "report the analyzer's wall time on stderr")
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), "usage: hydralint [flags] [packages]\n\ndeterminism: forbid wall clocks, global rand, map ranges, and goroutines in the deterministic simulation core\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 1
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "hydralint:", err)
		return 1
	}
	pkgs, err := loadPackages(cwd, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "hydralint:", err)
		return 1
	}

	start := time.Now()
	var diags []diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, check(pkg)...)
	}
	if *timing {
		fmt.Fprintf(stderr, "hydralint: %-12s %s\n", "determinism", time.Since(start).Round(time.Microsecond))
	}
	slices.SortFunc(diags, func(a, b diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.pos.Filename, b.pos.Filename),
			cmp.Compare(a.pos.Line, b.pos.Line),
			cmp.Compare(a.pos.Column, b.pos.Column),
			cmp.Compare(a.msg, b.msg),
		)
	})
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d:%d: %s (determinism)\n", relativize(cwd, d.pos.Filename), d.pos.Line, d.pos.Column, d.msg)
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
