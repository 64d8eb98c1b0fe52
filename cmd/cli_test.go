// Package cmd_test pins the command-line surface of the simulator's CLIs:
// each one's help text against a golden file, the flags that must stay gone,
// and a seconds-long run that has to succeed.
package cmd_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.help from the current binaries")

// run executes a built CLI in dir with a fixed GOMAXPROCS (the sweep tools
// print it as the -parallel default) and returns its combined output and
// exit status.
func run(t *testing.T, bin, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Args[0] = filepath.Base(bin) // flag prints os.Args[0] in "Usage of"
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return out.String(), 0
	case errors.As(err, &exit):
		return out.String(), exit.ExitCode()
	}
	t.Fatalf("%s %v: %v", bin, args, err)
	return "", 0
}

func TestCLIs(t *testing.T) {
	bins := t.TempDir()
	build := exec.Command("go", "build", "-o", bins+string(os.PathSeparator),
		"./hydranet-sim", "./ttcpbench", "./failover", "./hydrascope")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// step is one invocation in a CLI's smoke run, executed in a scratch
	// directory shared by the steps of that CLI.
	type step struct {
		bin  string // defaults to the CLI under test
		args []string
		exit int
		want string // substring of the output
	}
	for _, tc := range []struct {
		name  string
		help  [][]string // invocations whose output, concatenated, is the golden help
		gone  [][]string // invocations a removed flag must make fail with status 2
		smoke []step
	}{
		{
			name: "hydranet-sim",
			help: [][]string{{"-h"}},
			gone: [][]string{{"-workers", "2"}},
			smoke: []step{
				{args: []string{"-bytes", "65536", "-stats", "-invariants", "-prof", "p.json"}, want: "hydraprof profile written to p.json"},
			},
		},
		{
			name: "ttcpbench",
			help: [][]string{{"-h"}},
			gone: [][]string{{"-workers", "2"}, {"-scale", "s.json"}, {"-scale-pods", "4"}},
			smoke: []step{
				{args: []string{"-bytes", "16384", "-parallel", "2", "-json", "b.json"}, want: "swept 28 runs"},
				{bin: "hydrascope", args: []string{"diff", "b.json", "b.json", "-tol", "0"}, want: "bench diff clean"},
			},
		},
		{
			name: "failover",
			help: [][]string{{"-h"}},
			gone: [][]string{{"-workers", "2"}},
			smoke: []step{
				{args: []string{"-invariants"}, want: "invariants: clean across the sweep"},
			},
		},
		{
			name: "hydrascope",
			help: [][]string{{}, {"report", "-h"}, {"audit", "-h"}, {"diff", "-h"}},
			gone: [][]string{{"profile", "p.json", "-trace", "t.json"}, {"diff", "p.json", "p.json", "-stall-tol", "0.1"}},
			smoke: []step{
				{bin: "hydranet-sim", args: []string{"-bytes", "65536", "-prof", "p.json", "-series", "s.jsonl", "-audit", "a.json"}},
				{args: []string{"profile", "p.json"}, want: "ideal speedup"},
				{args: []string{"diff", "p.json", "p.json", "-tol", "0"}, want: "profile diff clean"},
				{args: []string{"report", "s.jsonl"}, want: "failover timeline"},
				{args: []string{"audit", "a.json", "-fail-on-violation"}, want: "verdict: CLEAN"},
				{args: []string{"frobnicate"}, exit: 2, want: "unknown subcommand"},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bin := filepath.Join(bins, tc.name)
			dir := t.TempDir()

			var help strings.Builder
			for _, args := range tc.help {
				out, _ := run(t, bin, dir, args...)
				help.WriteString("$ " + strings.Join(append([]string{tc.name}, args...), " ") + "\n" + out)
			}
			golden := filepath.Join("testdata", tc.name+".help")
			if *update {
				if err := os.WriteFile(golden, []byte(help.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if help.String() != string(want) {
				t.Errorf("help text drifted from %s (rerun with -update if intended):\n%s", golden, help.String())
			}

			for _, s := range tc.smoke {
				b := bin
				if s.bin != "" {
					b = filepath.Join(bins, s.bin)
				}
				out, exit := run(t, b, dir, s.args...)
				if exit != s.exit || !strings.Contains(out, s.want) {
					t.Errorf("%s %v: exit %d, want %d and output containing %q:\n%s",
						filepath.Base(b), s.args, exit, s.exit, s.want, out)
				}
			}
			// After the smoke run, so the files the invocations name exist and
			// only the removed flag can be what fails them.
			for _, args := range tc.gone {
				if out, exit := run(t, bin, dir, args...); exit != 2 {
					t.Errorf("%s %v: exit %d, want 2 (flag removed):\n%s", tc.name, args, exit, out)
				}
			}
		})
	}
}
