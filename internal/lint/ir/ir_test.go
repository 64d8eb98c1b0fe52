package ir

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// parseFunc type-checks src (a complete file) and returns the named
// function plus the type info.
func parseFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info, *types.Package, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info, pkg, fset
		}
	}
	t.Fatalf("no func %s", name)
	return nil, nil, nil, nil
}

// parsePkg type-checks src and returns everything file-level.
func parsePkg(t *testing.T, src string) ([]*ast.File, *types.Info, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return []*ast.File{f}, info, pkg
}

// reachesExit walks the graph from Entry and reports whether Exit is
// reachable, as a basic well-formedness probe.
func reachesExit(c *CFG) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == c.Exit {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(c.Entry)
}

func TestBuildShapes(t *testing.T) {
	cases := []struct{ name, body string }{
		{"straightline", `x := 1; _ = x`},
		{"if", `if c { x := 1; _ = x } else { y := 2; _ = y }`},
		{"ifEarlyReturn", `if c { return }; x := 1; _ = x`},
		{"forCond", `for i := 0; i < 10; i++ { if c { break }; if !c { continue } }`},
		{"forever", `for { if c { return } }`},
		{"rangeLoop", `for i, v := range xs { _ = i; _ = v }`},
		{"switchTag", `switch n { case 0: x := 1; _ = x; fallthrough; case 1: default: return }`},
		{"typeSwitch", `switch v := any(n).(type) { case int: _ = v; case string: }`},
		{"selectStmt", `select { case <-ch: case ch <- 1: return }`},
		{"labeledBreak", `outer: for { for { break outer } }`},
		{"labeledContinue", `outer: for i := 0; i < 2; i++ { for { continue outer } }`},
		{"gotoBack", `i := 0; top: i++; if i < 3 { goto top }`},
		{"panicTerm", `if c { panic("x") }; _ = n`},
		{"deferStmt", `defer f(); _ = n`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := fmt.Sprintf(`package p
var c bool
var n int
var xs []int
var ch chan int
func f() {}
func target() { %s }`, tc.body)
			fd, _, _, _ := parseFunc(t, src, "target")
			cfg := Build(fd.Body)
			if !reachesExit(cfg) {
				t.Fatalf("%s: Exit unreachable from Entry", tc.name)
			}
			if cfg.Exit.Index != len(cfg.Blocks)-1 {
				t.Fatalf("%s: Exit not last block", tc.name)
			}
			for _, b := range cfg.Blocks {
				for _, s := range b.Succs {
					found := false
					for _, p := range s.Preds {
						if p == b {
							found = true
						}
					}
					if !found {
						t.Fatalf("%s: succ edge %d->%d missing pred backlink", tc.name, b.Index, s.Index)
					}
				}
			}
		})
	}
}

func TestDefersCollected(t *testing.T) {
	src := `package p
func f() {}
func target() { defer f(); if true { defer f() } }`
	fd, _, _, _ := parseFunc(t, src, "target")
	cfg := Build(fd.Body)
	if len(cfg.Defers) != 2 {
		t.Fatalf("got %d defers, want 2", len(cfg.Defers))
	}
}

// TestForwardMustAnalysis runs a miniature locked-region analysis: the
// fact is "definitely holding the lock", join is AND.
func TestForwardMustAnalysis(t *testing.T) {
	src := `package p
var c bool
type mu struct{}
func (x *mu) Lock()   {}
func (x *mu) Unlock() {}
var m mu
func probe() {}
func branchOnly() { if c { m.Lock() }; probe(); if c { m.Unlock() } }
func lockUnlock() { m.Lock(); m.Unlock(); probe() }
func held() { m.Lock(); probe(); m.Unlock() }
func bothBranches() { if c { m.Lock() } else { m.Lock() }; probe(); m.Unlock() }`

	lat := Lattice[int]{ // 0 = not held, 1 = held; join = min (must)
		Join:  func(a, b int) int { return min(a, b) },
		Equal: func(a, b int) bool { return a == b },
		Clone: func(a int) int { return a },
	}
	heldAtProbe := func(t *testing.T, fnName string) int {
		fd, info, _, _ := parseFunc(t, src, fnName)
		cfg := Build(fd.Body)
		transfer := func(elem ast.Node, f int) int {
			var out = f
			Inspect(elem, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Lock":
						out = 1
					case "Unlock":
						out = 0
					}
				}
				return true
			})
			return out
		}
		p := Problem[int]{Lattice: lat, Boundary: 0, Transfer: transfer}
		in, reach := Forward(cfg, p)
		result := -1
		for _, b := range cfg.Blocks {
			if !reach[b] {
				continue
			}
			f := in[b]
			for _, e := range b.Elems {
				isProbe := false
				Inspect(e, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "probe" {
							isProbe = true
						}
					}
					return true
				})
				if isProbe {
					result = f
				}
				f = transfer(e, f)
			}
		}
		if result == -1 {
			t.Fatalf("%s: probe() not found", fnName)
		}
		_ = info
		return result
	}

	for fn, want := range map[string]int{
		"branchOnly":   0, // lock on one path only: not must-held
		"lockUnlock":   0, // released before the probe
		"held":         1,
		"bothBranches": 1, // held on every path into the merge
	} {
		if got := heldAtProbe(t, fn); got != want {
			t.Errorf("%s: held=%d at probe, want %d", fn, got, want)
		}
	}
}

func TestDefUseChains(t *testing.T) {
	src := `package p
var c bool
func g() int { return 1 }
func target() int {
	x := 1
	if c {
		x = 2
	}
	y := x
	x = 3
	return x + y
}`
	fd, info, _, fset := parseFunc(t, src, "target")
	cfg := Build(fd.Body)
	du := BuildDefUse(cfg, fd, info)

	// Find the use of x in `y := x`: two defs reach it (lines 5 and 7).
	// The use in `return x + y` sees exactly one (line 10's x = 3).
	counts := map[int]int{} // use line -> reaching def count
	for id, defs := range du.Reaching {
		if id.Name != "x" {
			continue
		}
		counts[fset.Position(id.Pos()).Line] = len(defs)
	}
	if counts[9] != 2 {
		t.Errorf("use of x at line 9 reached by %d defs, want 2", counts[9])
	}
	if counts[11] != 1 {
		t.Errorf("use of x at line 11 reached by %d defs, want 1", counts[11])
	}
}

func TestDefUseParamEntryDef(t *testing.T) {
	src := `package p
func target(n int) int { return n }`
	fd, info, _, _ := parseFunc(t, src, "target")
	cfg := Build(fd.Body)
	du := BuildDefUse(cfg, fd, info)
	found := false
	for id, defs := range du.Reaching {
		if id.Name == "n" && len(defs) == 1 && defs[0] == 0 {
			found = true
		}
	}
	if !found {
		t.Error("param use not chained to the entry definition (token.NoPos)")
	}
}

func TestCallGraphBottomUp(t *testing.T) {
	src := `package p
func leaf() {}
func mid() { leaf() }
func top() { mid(); leaf() }
func recA() { recB() }
func recB() { recA() }`
	files, info, pkg := parsePkg(t, src)
	cg := BuildCallGraph(files, info, pkg)

	if len(cg.Decls) != 5 {
		t.Fatalf("got %d decls, want 5", len(cg.Decls))
	}
	var order []string
	visits := map[string]int{}
	cg.BottomUp(func(fn *types.Func, decl *ast.FuncDecl) bool {
		order = append(order, fn.Name())
		visits[fn.Name()]++
		// Report change on the first visit only, so SCC iteration stops.
		return visits[fn.Name()] == 1
	})
	pos := func(name string) int {
		for i, n := range order {
			if n == name {
				return i
			}
		}
		t.Fatalf("%s never visited", name)
		return -1
	}
	if !(pos("leaf") < pos("mid") && pos("mid") < pos("top")) {
		t.Errorf("bottom-up order violated: %v", order)
	}
	// The recA/recB component iterates to fixpoint: each visited at least twice.
	if visits["recA"] < 2 || visits["recB"] < 2 {
		t.Errorf("mutual recursion not iterated: visits=%v", visits)
	}
}

func TestStaticCallee(t *testing.T) {
	src := `package p
import "sort"
type s struct{}
func (s) m() {}
func f() {}
func target() {
	f()
	var v s
	v.m()
	sort.Strings(nil)
	g := f
	g()
}`
	fd, info, pkg, _ := parseFunc(t, src, "target")
	var names []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := StaticCallee(info, call); fn != nil {
			names = append(names, fn.Name())
			_ = pkg
		} else {
			names = append(names, "<indirect>")
		}
		return true
	})
	sort.Strings(names)
	want := []string{"<indirect>", "Strings", "f", "m"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("callees = %v, want %v", names, want)
	}
}
