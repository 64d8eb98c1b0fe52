package framepool

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

// parsePkg type-checks src (a complete file) and returns everything
// file-level.
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

func TestCallGraphBottomUp(t *testing.T) {
	src := `package p
func leaf() {}
func mid() { leaf() }
func top() { mid(); leaf() }
func recA() { recB() }
func recB() { recA() }`
	files, info, pkg := parsePkg(t, src)
	cg := buildCallGraph(files, info, pkg)

	if len(cg.decls) != 5 {
		t.Fatalf("got %d decls, want 5", len(cg.decls))
	}
	var order []string
	visits := map[string]int{}
	cg.bottomUp(func(fn *types.Func, decl *ast.FuncDecl) bool {
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
	files, info, _ := parsePkg(t, src)
	var names []string
	ast.Inspect(files[0], func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := staticCallee(info, call); fn != nil {
			names = append(names, fn.Name())
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
