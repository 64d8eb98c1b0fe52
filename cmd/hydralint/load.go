package main

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

// A loadedPkg is one type-checked package ready for the determinism check.
// The loader needs no golang.org/x/tools: one `go list -export -deps` call
// builds every dependency's export data, and only the packages under
// analysis are parsed and type-checked, so a whole-repo run never
// re-type-checks a dependency from source or compiles anything twice.
type loadedPkg struct {
	path  string
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	ImportMap  map[string]string
	Error      *struct{ Err string }
	DepOnly    bool
}

// loadPackages loads and type-checks the packages matched by patterns,
// interpreted relative to dir (the go command's working directory). Test
// files are not loaded: hydralint checks the shipped simulator, and test
// binaries are free to use time.Now or fmt as they please. GoFiles honours
// build constraints, so a file excluded by its tags is never seen.
func loadPackages(dir string, patterns ...string) ([]*loadedPkg, error) {
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	args := []string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Export,ImportMap,Error,DepOnly",
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
	var pkgs []*loadedPkg
	var errs []error
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("package %s: cgo is not supported by hydralint", t.ImportPath)
		}
		pkg, err := typeCheck(fset, t, exports)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, errors.Join(errs...)
}

// typeCheck parses and type-checks one listed package against the shared
// export data.
func typeCheck(fset *token.FileSet, t *listPkg, exports map[string]string) (*loadedPkg, error) {
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
	// The rules read expression types (map ranges) and identifier uses
	// (package-qualified selectors); nothing else is recorded.
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	if _, err := conf.Check(t.ImportPath, fset, files, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
	}
	return &loadedPkg{path: t.ImportPath, fset: fset, files: files, info: info}, nil
}
