// Package ir holds what the hydralint analyzers share above go/ast and
// go/types: a per-package call graph of same-package static calls with a
// bottom-up (callees first, recursive components to fixpoint) visiting
// order. The framepool analyzer's interprocedural ownership summaries run
// on it. Like the rest of the lint suite it builds from the standard
// library alone (no x/tools).
package ir

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
)

// A CallGraph relates the functions and methods declared in one package
// through their same-package static call edges. Calls through interfaces,
// function values, and other packages are outside the graph: analyzers
// treat those callees as unknown and fall back to their conservative
// default.
type CallGraph struct {
	// Decls maps each declared function to its syntax.
	Decls map[*types.Func]*ast.FuncDecl
	// Callees lists the same-package functions each function calls
	// directly (deduplicated, source order).
	Callees map[*types.Func][]*types.Func
}

// BuildCallGraph scans the package's files and resolves every static call
// to a function or method declared in pkg.
func BuildCallGraph(files []*ast.File, info *types.Info, pkg *types.Package) *CallGraph {
	cg := &CallGraph{
		Decls:   map[*types.Func]*ast.FuncDecl{},
		Callees: map[*types.Func][]*types.Func{},
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			cg.Decls[fn] = fd
		}
	}
	for fn, fd := range cg.Decls {
		seen := map[*types.Func]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := StaticCallee(info, call)
			if callee == nil || callee.Pkg() != pkg {
				return true
			}
			if _, declared := cg.Decls[callee]; !declared || seen[callee] {
				return true
			}
			seen[callee] = true
			cg.Callees[fn] = append(cg.Callees[fn], callee)
			return true
		})
	}
	return cg
}

// StaticCallee resolves a call expression to the function or method it
// statically invokes, or nil for indirect calls (function values,
// interface methods, conversions, builtins).
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: obs.Publish, frame.NewPool, ...
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// BottomUp visits every declared function callees-first: within a
// strongly connected component (mutual recursion) the members are
// revisited until no visit reports a change, so summary computations
// reach their fixpoint. Visit order is deterministic (position order
// within and across components).
func (cg *CallGraph) BottomUp(visit func(fn *types.Func, decl *ast.FuncDecl) bool) {
	for _, scc := range cg.sccs() {
		for changed := true; changed; {
			changed = false
			for _, fn := range scc {
				if visit(fn, cg.Decls[fn]) {
					changed = true
				}
			}
			if len(scc) == 1 && !slices.Contains(cg.Callees[scc[0]], scc[0]) {
				break // no cycle: one pass suffices
			}
		}
	}
}

// sccs returns the condensation of the call graph in reverse topological
// (callees-first) order, deterministically: Tarjan's algorithm over
// functions sorted by declaration position.
func (cg *CallGraph) sccs() [][]*types.Func {
	fns := make([]*types.Func, 0, len(cg.Decls))
	for fn := range cg.Decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	index := map[*types.Func]int{}
	low := map[*types.Func]int{}
	onStack := map[*types.Func]bool{}
	var stack []*types.Func
	var out [][]*types.Func
	next := 0

	var strongconnect func(v *types.Func)
	strongconnect = func(v *types.Func) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range cg.Callees[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Func
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return scc[i].Pos() < scc[j].Pos() })
			out = append(out, scc)
		}
	}
	for _, fn := range fns {
		if _, seen := index[fn]; !seen {
			strongconnect(fn)
		}
	}
	return out
}
