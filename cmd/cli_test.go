// Package cmd_test pins the command-line surface of the repository's CLIs:
// each one's help text against a golden file, the flags that must stay gone,
// and a seconds-long run that has to succeed.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.help and testdata/*.out from the current binaries")

// run executes a built CLI in dir with a fixed GOMAXPROCS (the experiment
// subcommand prints it as the -parallel default) and returns its combined
// output and exit status.
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

// stdout executes a built CLI like run and returns its standard output
// alone; the invocation must succeed.
func stdout(t *testing.T, bin, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var errs bytes.Buffer
	cmd.Stderr = &errs
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, errs.Bytes())
	}
	return out
}

// narrations are hydranet-sim command lines whose standard output is pinned
// byte for byte in testdata/<name>.out: the narrated run is deterministic.
var narrations = []struct {
	name string
	args []string
}{
	{"hydranet-sim-stats-v", []string{"-stats", "-v"}},
	{"hydranet-sim-backup-trace", []string{"-replicas", "2", "-crash", "backup", "-trace", "20", "-bytes", "262144"}},
	{"hydranet-sim-12-replicas", []string{"-replicas", "12", "-crash", "none", "-bytes", "65536", "-stats"}},
}

func TestCLIs(t *testing.T) {
	bins := t.TempDir()
	build := exec.Command("go", "build", "-o", bins+string(os.PathSeparator),
		"./hydranet-sim", "./hydrascope")
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
		none string // a file the invocation names and must not have created
	}
	for _, tc := range []struct {
		name  string
		help  [][]string // invocations whose output, concatenated, is the golden help
		gone  [][]string // invocations a removed flag must make fail with status 2
		smoke []step
	}{
		{
			name: "hydranet-sim",
			help: [][]string{{"-h"}, {"experiment", "-h"}},
			gone: [][]string{{"-workers", "2"}, {"-prof", "p.json"}, {"-flight", "f"}, {"-spans", "s.json"},
				{"experiment", "a1", "-backups", "2"}, {"experiment", "fig4", "-repeat", "2"},
				{"experiment", "a1", "-spans", "s.json"}, {"-series", "s.jsonl"}, {"experiment", "a1", "-sample-every", "1s"}},
			smoke: []step{
				{args: []string{"-bytes", "65536", "-stats", "-invariants", "-audit", "ok.audit.json"}, want: "audit report written to ok.audit.json"},
				{args: []string{"-trace", "20"}, want: "[SYN|ACK]"},
				// A bad command line is diagnosed before any file exists or any
				// virtual time runs, whatever -crash-at says.
				{args: []string{"-crash", "bogus", "-pcap", "bogus.pcap"}, exit: 2, want: `unknown -crash "bogus"`, none: "bogus.pcap"},
				{args: []string{"-crash", "bogus", "-crash-at", "0"}, exit: 2, want: `unknown -crash "bogus"`},
				{args: []string{"-replicas", "1", "-crash", "backup", "-cpuprofile", "cpu.out"}, exit: 2, want: "-crash backup needs -replicas 2", none: "cpu.out"},
				{args: []string{"-events", "nope", "-audit", "a.json"}, exit: 2, want: "-events list", none: "a.json"},
				// Out-of-range numbers are a bad command line too.
				{args: []string{"-bytes", "-1", "-pcap", "neg.pcap"}, exit: 2, want: "-bytes -1: want 1 or more", none: "neg.pcap"},
				{args: []string{"-bytes", "0", "-pcap", "zero.pcap"}, exit: 2, want: "-bytes 0: want 1 or more", none: "zero.pcap"},
				{args: []string{"-threshold", "-2", "-audit", "th.json"}, exit: 2, want: "-threshold -2: want 1 or more", none: "th.json"},
				{args: []string{"-replicas", "256", "-pcap", "many.pcap"}, exit: 2, want: "-replicas 256: want at most 255", none: "many.pcap"},
				{args: []string{"-crash-at", "-1s", "-pcap", "ca.pcap"}, exit: 2, want: "-crash-at -1s: want 0 or more", none: "ca.pcap"},
				{args: []string{"-trace", "-3", "-pcap", "tr.pcap"}, exit: 2, want: "-trace -3: want 0 or more", none: "tr.pcap"},
				// An artifact that cannot be written is Finish's error: exit 1.
				{args: []string{"-bytes", "65536", "-audit", "no-such-dir/a.json"}, exit: 1, want: "hydranet-sim: observers: hydranet: audit:"},
				{args: []string{"experiment", "list"}, want: "fig4\na1\na1b\na2\na3\na4\na5\n"},
				{args: []string{"experiment", "fig4", "-bytes", "16384", "-parallel", "2"}, want: "primary and backup"},
				// A failed experiment fails the command and names its row.
				{args: []string{"experiment", "a1", "-loss", "1"}, exit: 1, want: "experiment a1: threshold 1: the crash was never detected"},
				{args: []string{"experiment", "nope", "-pcap", "nope.pcap"}, exit: 2, want: `unknown experiment "nope"`, none: "nope.pcap"},
				{args: []string{"experiment", "a1", "-seeds", "0", "-cpuprofile", "z.out"}, exit: 2, want: "-seeds 0", none: "z.out"},
				{args: []string{"experiment", "a2", "-bytes", "-5", "-cpuprofile", "b.out"}, exit: 2, want: "-bytes -5: want 0 or more", none: "b.out"},
				{args: []string{"experiment", "a1", "-loss", "-0.5", "-cpuprofile", "l.out"}, exit: 2, want: "-loss -0.5: want a probability", none: "l.out"},
				{args: []string{"experiment", "a1", "-loss", "1.5", "-cpuprofile", "m.out"}, exit: 2, want: "-loss 1.5: want a probability", none: "m.out"},
				{args: []string{"experiment", "a1", "-invariants", "-audit", "fo.audit.json"}, want: "invariants: clean across the sweep"},
				{bin: "hydrascope", args: []string{"audit", "fo-t3.audit.json", "-fail-on-violation"}, want: "verdict: CLEAN"},
				// A worker that cannot write reports it; it does not panic.
				{args: []string{"experiment", "a1", "-parallel", "2", "-pcap", "no-such-dir/f.pcap"}, exit: 1, want: "threshold 1: hydranet: pcap:"},
			},
		},
		{
			name: "hydrascope",
			help: [][]string{{}, {"report", "-h"}, {"audit", "-h"}},
			gone: [][]string{{"profile", "s.jsonl"}, {"diff", "a.json", "a.json"},
				{"report", "s.jsonl", "-spans", "s.pcap"}, {"report", "s.jsonl", "-pcap", "s.pcap"}},
			smoke: []step{
				{bin: "hydranet-sim", args: []string{"-bytes", "65536", "-audit", "a.json", "-pcap", "s.pcap"}},
				// report reads captures and nothing else: no sniffing.
				{args: []string{"report", "a.json"}, exit: 2, want: "hydrascope:"},
				{args: []string{"report", "s.pcap"}, want: "chain hop 10.4.0.1 → 10.3.0.1 datagram"},
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
				if exit != s.exit || !strings.Contains(out, s.want) || strings.Contains(out, "panic:") {
					t.Errorf("%s %v: exit %d, want %d and output containing %q:\n%s",
						filepath.Base(b), s.args, exit, s.exit, s.want, out)
				}
				if s.none != "" {
					if _, err := os.Stat(filepath.Join(dir, s.none)); err == nil {
						t.Errorf("%s %v: created %s before rejecting the command line", filepath.Base(b), s.args, s.none)
					}
				}
			}
			if tc.name == "hydranet-sim" {
				for _, n := range narrations {
					got := stdout(t, bin, dir, n.args...)
					golden := filepath.Join("testdata", n.name+".out")
					if *update {
						if err := os.WriteFile(golden, got, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					if want, err := os.ReadFile(golden); err != nil {
						t.Error(err)
					} else if !bytes.Equal(got, want) {
						t.Errorf("hydranet-sim %v: stdout drifted from %s (rerun with -update if intended)", n.args, golden)
					}
				}
				// With -stats-json -, standard output is the snapshot alone.
				var snap struct {
					Time, Hosts, Links, Redirectors json.RawMessage
					Failover                        *struct{ Complete bool }
				}
				out := stdout(t, bin, dir, "-replicas", "3", "-crash", "primary", "-stats-json", "-")
				if err := json.Unmarshal(out, &snap); err != nil || snap.Time == nil || snap.Hosts == nil ||
					snap.Links == nil || snap.Redirectors == nil || snap.Failover == nil || !snap.Failover.Complete {
					t.Errorf("-stats-json -: %v, want a snapshot with a complete fail-over:\n%.300s", err, out)
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

// TestObserverFlagsReadIdentically: the five observer flags are registered in
// one place, so their help entries read the same in the narrated scenario and
// in the experiment subcommand.
func TestObserverFlagsReadIdentically(t *testing.T) {
	entry := func(help, name string) string {
		i := strings.Index(help, "\n  -"+name+" ")
		if i < 0 {
			i = strings.Index(help, "\n  -"+name+"\n")
		}
		if i < 0 {
			return ""
		}
		rest := help[i+1:]
		if j := strings.Index(rest, "\n  -"); j >= 0 {
			rest = rest[:j]
		}
		return strings.TrimSpace(rest)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "hydranet-sim.help"))
	if err != nil {
		t.Fatal(err)
	}
	sim, exp, ok := strings.Cut(string(raw), "$ hydranet-sim experiment -h\n")
	if !ok {
		t.Fatal("hydranet-sim.help holds no experiment -h")
	}
	for _, name := range []string{"pcap", "invariants", "audit", "cpuprofile", "memprofile"} {
		if e := entry(sim, name); e == "" || e != entry(exp, name) {
			t.Errorf("-%s reads differently:\n%s\n%s", name, e, entry(exp, name))
		}
	}
}
