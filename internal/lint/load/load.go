// Package load type-checks packages for the hydralint analyzers without
// depending on golang.org/x/tools. It shells out to the go command once —
// `go list -export -deps -json` — so every dependency's export data is
// produced by a single shared build, then parses and type-checks only the
// packages under analysis, resolving imports through the gc export data the
// list call already paid for. This is what keeps a whole-repo lint run
// cheaper than a test run: dependencies are never re-type-checked from
// source, and nothing is compiled twice.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// A Package is one type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	Standard   bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
	DepOnly    bool
}

// Packages loads and type-checks the packages matched by patterns,
// interpreted relative to dir (the go command's working directory). Test
// files are not loaded: hydralint checks the shipped simulator, and test
// binaries are free to use time.Now or fmt as they please.
func Packages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	args := []string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,CgoFiles,Export,Standard,ImportMap,Error,DepOnly",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if !p.DepOnly {
			q := p
			targets = append(targets, &q)
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	var errs []error
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("package %s: cgo is not supported by hydralint", t.ImportPath)
		}
		pkg, err := check(fset, t, exports)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	if len(errs) > 0 {
		return pkgs, errors.Join(errs...)
	}
	return pkgs, nil
}

// check parses and type-checks one listed package against the shared
// export data.
func check(fset *token.FileSet, t *listPkg, exports map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(t.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := t.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (dependency of %s)", path, t.ImportPath)
		}
		return os.Open(exp)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
	}
	return &Package{PkgPath: t.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
