package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"hydranet/internal/testbed"
)

// experiment is the experiment subcommand: it prints one EXPERIMENTS.md
// table, and exits 1 when a run fails its check, violates an invariant or
// cannot write an artifact.
func experiment(args []string) {
	fs := flag.NewFlagSet("hydranet-sim experiment <name>|list", flag.ExitOnError)
	var s testbed.Sweep
	fs.Int64Var(&s.Seed, "seed", 1, "first simulation seed")
	fs.IntVar(&s.Seeds, "seeds", 1, "seeds per point, from -seed up; a cell over several prints median (min–max)")
	fs.IntVar(&s.Parallel, "parallel", runtime.GOMAXPROCS(0), "concurrent simulations (1 = serial)")
	jsonOut := fs.Bool("json", false, "print every per-seed value as JSON instead of the table")
	fs.IntVar(&s.Bytes, "bytes", 0, "transfer volume of fig4, a2, a3 and a4 (default: fig4 512 KiB, the others 256 KiB)")
	fs.Func("loss", "link loss `probability` of a1 and a1b (default: a1 0, a1b 0.02)", func(v string) error {
		loss, err := strconv.ParseFloat(v, 64)
		s.Loss = &loss
		return err
	})
	observe, startPprof := testbed.ObserverFlags(fs)
	fs.Parse(args) // the name comes first; flags may follow it
	name := fs.Arg(0)
	if fs.NArg() > 0 {
		fs.Parse(fs.Args()[1:])
	}
	switch {
	case name == "list":
		fmt.Println(strings.Join(testbed.ExperimentNames, "\n"))
		return
	case !slices.Contains(testbed.ExperimentNames, name) || fs.NArg() > 0:
		usage("experiment: unknown experiment %q (try experiment list)", strings.Join(append([]string{name}, fs.Args()...), " "))
	case s.Seeds < 1:
		usage("experiment: -seeds %d: want at least 1", s.Seeds)
	case s.Bytes < 0:
		usage("experiment: -bytes %d: want 0 or more", s.Bytes)
	case s.Loss != nil && !(*s.Loss >= 0 && *s.Loss <= 1):
		usage("experiment: -loss %g: want a probability from 0 to 1", *s.Loss)
	}
	what := "experiment " + name
	stopPprof, err := startPprof()
	fatal(what, err)
	s.Observe = *observe
	tab, err := testbed.RunExperiment(name, s)
	fatal(what, err)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(what, enc.Encode(tab))
	} else {
		fatal(what, tab.WriteText(os.Stdout))
		if observe.Invariants || observe.Audit != "" {
			verdict := "clean"
			if tab.Violations > 0 {
				verdict = fmt.Sprintf("%d VIOLATIONS", tab.Violations)
			}
			fmt.Printf("\ninvariants: %s across the sweep\n", verdict)
		}
	}
	fatal(what, stopPprof())
	for _, f := range tab.Failures {
		fmt.Fprintf(os.Stderr, "hydranet-sim: %s: %s\n", what, f)
	}
	if len(tab.Failures) > 0 {
		os.Exit(1)
	}
}
