package main

import (
	"bytes"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A seeded package must produce findings (exit 2), a shipped one must be
// clean (exit 0).
const (
	seededPkg = "./testdata/src/internal/sim"
	cleanPkg  = "../../internal/frame"
)

var wantRE = regexp.MustCompile(`"([^"]*)"`)

// A want is one `want "substring"` comment: a finding on its line whose
// message contains text.
type want struct {
	at, text string // at is "file:line"
	claimed  bool
}

// match pairs each finding in stdout with an unclaimed want on its line and
// returns one complaint per unexpected finding and per unclaimed want.
func match(wants []*want, stdout string) []string {
	var complaints []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if line == "" {
			continue
		}
		f := strings.SplitN(line, ":", 4) // file, line, column, message
		i := slices.IndexFunc(wants, func(w *want) bool {
			return !w.claimed && w.at == f[0]+":"+f[1] && strings.Contains(f[len(f)-1], w.text)
		})
		if i < 0 {
			complaints = append(complaints, "unexpected diagnostic: "+line)
			continue
		}
		wants[i].claimed = true
	}
	for _, w := range wants {
		if !w.claimed {
			complaints = append(complaints, fmt.Sprintf("%s: no diagnostic matching %q", w.at, w.text))
		}
	}
	return complaints
}

// golden runs hydralint over the seeded package dir: each finding must be
// claimed by a want on its line, and each want must claim exactly one.
func golden(t *testing.T, dir string) {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		src, err := os.ReadFile(path)
		for i, line := range strings.Split(string(src), "\n") {
			if _, list, ok := strings.Cut(line, `want "`); ok {
				for _, m := range wantRE.FindAllStringSubmatch(`"`+list, -1) {
					wants = append(wants, &want{at: fmt.Sprintf("%s:%d", path, i+1), text: m[1]})
				}
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"./" + dir}, &stdout, &stderr); got != 2 {
		t.Fatalf("exit %d, want 2\nstderr: %s", got, stderr.String())
	}
	for _, c := range match(wants, stdout.String()) {
		t.Error(c)
	}
}

func TestCoveredPackage(t *testing.T)          { golden(t, "testdata/src/internal/sim") }
func TestCoveredInvariantPackage(t *testing.T) { golden(t, "testdata/src/internal/invariant") }
func TestUncoveredPackage(t *testing.T)        { golden(t, "testdata/src/other") }

// TestMultipleWantsPerLine: two wants on one line each claim exactly one of
// the line's findings, so one finding cannot satisfy both.
func TestMultipleWantsPerLine(t *testing.T) {
	wants := func() []*want { return []*want{{at: "a.go:3", text: "finding"}, {at: "a.go:3", text: "finding"}} }
	if c := match(wants(), "a.go:3:1: alpha finding\na.go:3:9: beta finding\n"); len(c) != 0 {
		t.Errorf("two findings, two wants: %q", c)
	}
	if c := match(wants(), "a.go:3:1: alpha finding\n"); len(c) != 1 {
		t.Errorf("one finding, two wants: %q, want one unclaimed", c)
	}
}

// TestUnmatchedWantFails: a want no finding satisfies is a complaint, or a
// renamed message would silently retire the seeded case it pins.
func TestUnmatchedWantFails(t *testing.T) {
	c := match([]*want{{at: "a.go:3", text: "alpha"}}, "a.go:3:1: beta finding\n")
	if len(c) != 2 || !strings.Contains(c[1], `no diagnostic matching "alpha"`) {
		t.Fatalf("complaints %q, want the unexpected finding and the unclaimed want", c)
	}
}

// TestUnexpectedDiagnosticFails: a finding with no want on its line is a
// complaint too.
func TestUnexpectedDiagnosticFails(t *testing.T) {
	c := match(nil, "a.go:1:9: surprise diagnostic\n")
	if len(c) != 1 || !strings.Contains(c[0], "unexpected diagnostic") {
		t.Fatalf("complaints %q, want one unexpected diagnostic", c)
	}
}

// TestBuildTagFiles: the loader honours build constraints, so excluded.go,
// behind an unset tag, is never parsed.
func TestBuildTagFiles(t *testing.T) {
	pkgs, err := loadPackages(".", seededPkg)
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("load: %d packages, %v", len(pkgs), err)
	}
	for _, f := range pkgs[0].files {
		if name := pkgs[0].fset.Position(f.Package).Filename; filepath.Base(name) == "excluded.go" {
			t.Errorf("%s was loaded despite its build tag", name)
		}
	}
}

// TestDirectives pins the annotation grammar: which names parse, which need
// a reason, and that anything else — a typo, or a directive retired with the
// analyzer it fed — is reported by name.
func TestDirectives(t *testing.T) {
	for _, tc := range []struct {
		comment   string
		malformed string // substring of the complaint; "" means well-formed
	}{
		{"//hydralint:nondeterministic commutative sum", ""},
		{"//hydralint:nondeterministic", "requires a reason"},
		{"//hydralint:nonsense whatever", `unknown hydralint directive "nonsense"`},
		{"//hydralint:" + "domainsafe constructor", `unknown hydralint directive "domainsafe"`},
		{"//hydralint:" + "zeroalloc", `unknown hydralint directive "zeroalloc"`},
		{"// hydralint:nondeterministic spaced", "no spaces"},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", "package p\n\n"+tc.comment+"\nvar _ = 1\n", parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		excuses := directives(fset, f, func(_ token.Pos, msg string) { got = append(got, msg) })
		if tc.malformed == "" && (len(excuses) != 1 || len(got) != 0) {
			t.Errorf("%s: %d excuses, complaints %q; want one excuse", tc.comment, len(excuses), got)
		}
		if tc.malformed != "" && (len(excuses) != 0 || len(got) != 1 || !strings.Contains(got[0], tc.malformed)) {
			t.Errorf("%s: %d excuses, complaints %q; want one containing %q", tc.comment, len(excuses), got, tc.malformed)
		}
	}
}

func TestExitCodeFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{seededPkg}, &stdout, &stderr); got != 2 {
		t.Fatalf("seeded violations: exit %d, want 2\nstdout: %s\nstderr: %s", got, stdout.String(), stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("exit 2 with no diagnostics printed")
	}
}

func TestExitCodeClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{cleanPkg}, &stdout, &stderr); got != 0 {
		t.Fatalf("clean package: exit %d, want 0\nstdout: %s\nstderr: %s", got, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("clean package printed diagnostics:\n%s", stdout.String())
	}
}

func TestExitCodeLoadFailure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"./no-such-package"}, &stdout, &stderr); got != 1 {
		t.Fatalf("broken target: exit %d, want 1\nstderr: %s", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "hydralint:") {
		t.Fatalf("load failure did not explain itself on stderr: %q", stderr.String())
	}
}

// TestExitCodeBadFlag keeps a typo in hydralint's own arguments apart from
// a finding: an unknown flag exits 1, not 2, and -h exits 0 with the usage.
func TestExitCodeBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-json", cleanPkg}, &stdout, &stderr); got != 1 {
		t.Fatalf("unknown flag: exit %d, want 1\nstderr: %s", got, stderr.String())
	}
	stderr.Reset()
	if got := run([]string{"-h"}, &stdout, &stderr); got != 0 || !strings.Contains(stderr.String(), "usage: hydralint") {
		t.Fatalf("-h: exit %d, want 0 with the usage\nstderr: %s", got, stderr.String())
	}
}

// TestTimingFlag keeps -time wired: one wall-time line for the analyzer
// on stderr, none on stdout.
func TestTimingFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-time", cleanPkg}, &stdout, &stderr); got != 0 {
		t.Fatalf("clean package with -time: exit %d, want 0\nstderr: %s", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "hydralint: determinism") {
		t.Errorf("-time output missing the analyzer's line:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("-time leaked onto stdout:\n%s", stdout.String())
	}
}
