// Package linttest is a golden-test harness for hydralint analyzers,
// modelled on golang.org/x/tools/go/analysis/analysistest. Testdata
// packages live under the analyzer's testdata/ directory (which the go
// tool ignores for wildcard builds, so seeded violations never leak into
// `go build ./...`), and annotate the diagnostics they expect with
// trailing comments:
//
//	for k := range m { // want "map iteration order is nondeterministic"
//
// Each string after `want` is a regular expression; a line may carry
// several. The harness fails the test when a diagnostic has no matching
// expectation on its line, and when an expectation goes unmatched — seeded
// violations must be caught, and clean lines must stay clean.
package linttest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"hydranet/internal/lint"
	"hydranet/internal/lint/load"
)

// TestData returns the caller's testdata directory.
func TestData(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		t.Fatal("linttest: cannot locate caller")
	}
	return filepath.Join(filepath.Dir(file), "testdata")
}

// expectation is one `want` pattern awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// TB is the subset of testing.TB the harness consumes. Production tests
// pass *testing.T; the harness's own tests substitute a recorder to prove
// that stale expectations and unexpected diagnostics actually fail.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// Run loads the package rooted at dir (an absolute directory containing
// one testdata package), applies the analyzer, and compares diagnostics
// against the package's want comments.
func Run(t TB, a *lint.Analyzer, dir string) {
	t.Helper()
	pkgs, err := load.Packages(dir, ".")
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loading %s: got %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]

	var diags []lint.Diagnostic
	pass := lint.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, &diags)
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}
	lint.SortDiagnostics(diags)

	wants := collectWants(t, pkg.Fset, pkg.Files)

	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(w.file), w.line, w.raw)
		}
	}
}

// claim marks the first unmatched expectation on the diagnostic's line
// whose pattern matches; it reports whether one was found.
func claim(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.line != d.Pos.Line || w.file != d.Pos.Filename {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants parses every `// want "re" ...` comment in the package.
func collectWants(t TB, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if strings.HasPrefix(text, "/*") {
					text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
					raw := strings.ReplaceAll(m[1], `\"`, `"`)
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, raw, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return out
}
