// Command hydralint runs the hydranet static-invariant analyzers (framepool,
// determinism) over Go packages. It works two ways:
//
// Standalone, over package patterns:
//
//	go run ./cmd/hydralint ./...
//	go run ./cmd/hydralint -json ./internal/netsim
//	go run ./cmd/hydralint -determinism=false ./...
//	go run ./cmd/hydralint -time ./...
//
// As a vet tool, which reuses the build cache's export data per package
// unit exactly the way the real go/analysis unitchecker does:
//
//	go vet -vettool=$(go env GOPATH)/bin/hydralint ./...
//
// Exit status: 0 when clean, 1 on an internal or load error, 2 when
// diagnostics were reported (the go vet convention).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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

// version participates in go vet's content-addressed caching: bump it when
// analyzer behavior changes so stale cached verdicts are not replayed.
const version = "hydralint-5"

// schemaVersion identifies the -json output shape; consumers pin it so a
// field rename cannot silently break CI parsers.
const schemaVersion = 1

var analyzers = []*lint.Analyzer{
	framepool.Analyzer,
	determinism.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// The go vet driver protocol probes the tool before using it:
	// `-V=full` must print a version fingerprint, `-flags` the flags the
	// tool accepts (JSON). Handle both before normal flag parsing.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Fprintf(stdout, "hydralint version %s\n", version)
			return 0
		}
	}
	if len(args) == 1 && (args[0] == "-flags" || args[0] == "--flags") {
		fmt.Fprintln(stdout, "[]")
		return 0
	}

	fs := flag.NewFlagSet("hydralint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
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

	active := activeAnalyzers(enabled)
	if len(active) == 0 {
		fmt.Fprintln(stderr, "hydralint: every analyzer is disabled")
		return 1
	}

	// go vet hands the tool a single JSON config file per package unit.
	if fs.NArg() == 1 && strings.HasSuffix(fs.Arg(0), ".cfg") {
		return unitcheck(fs.Arg(0), active)
	}

	return standalone(fs.Args(), active, *jsonOut, *timing, stdout, stderr)
}

func activeAnalyzers(enabled map[string]*bool) []*lint.Analyzer {
	var out []*lint.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

// --- standalone mode ---

func standalone(patterns []string, active []*lint.Analyzer, jsonOut, timing bool, stdout, stderr io.Writer) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "hydralint:", err)
		return 1
	}
	pkgs, err := load.Packages(cwd, patterns...)
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
	if timing {
		for _, a := range active {
			fmt.Fprintf(stderr, "hydralint: %-12s %s\n", a.Name, spent[a.Name].Round(time.Microsecond))
		}
	}
	lint.SortDiagnostics(diags)
	emit(stdout, diags, cwd, jsonOut)
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// emit prints diagnostics with paths relative to base when that shortens
// them.
func emit(w io.Writer, diags []lint.Diagnostic, base string, jsonOut bool) {
	if jsonOut {
		type jd struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		type report struct {
			SchemaVersion int  `json:"schema_version"`
			Diagnostics   []jd `json:"diagnostics"`
		}
		out := report{SchemaVersion: schemaVersion, Diagnostics: make([]jd, 0, len(diags))}
		for _, d := range diags {
			out.Diagnostics = append(out.Diagnostics, jd{relativize(base, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "\t")
		enc.Encode(out)
		return
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s:%d:%d: %s (%s)\n", relativize(base, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
}

func relativize(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// --- go vet unitchecker mode ---

// vetConfig mirrors the JSON config the go vet driver writes for each
// package unit (cmd/go's internal vetConfig / x/tools unitchecker.Config).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitcheck(cfgPath string, active []*lint.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hydralint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hydralint: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The driver requires the facts file to exist even though hydralint
	// exchanges no facts between packages.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "hydralint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "hydralint:", err)
			return 1
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, compiler, lookup)}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "hydralint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	var diags []lint.Diagnostic
	for _, a := range active {
		pass := lint.NewPass(a, fset, files, tpkg, info, &diags)
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(os.Stderr, "hydralint: %s on %s: %v\n", a.Name, cfg.ImportPath, err)
			return 1
		}
	}
	lint.SortDiagnostics(diags)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s (%s)\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
