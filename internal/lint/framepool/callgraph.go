package framepool

// The per-package call graph the ownership summaries (summary.go) run on:
// same-package static calls, visited bottom-up (callees first, recursive
// components to fixpoint). Like the rest of the lint suite it builds from
// the standard library alone (no x/tools).

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
)

// A callGraph relates the functions and methods declared in one package
// through their same-package static call edges. Calls through interfaces,
// function values, and other packages are outside the graph: the summaries
// treat those callees as unknown and fall back to their conservative
// default.
type callGraph struct {
	// decls maps each declared function to its syntax.
	decls map[*types.Func]*ast.FuncDecl
	// callees lists the same-package functions each function calls
	// directly (deduplicated, source order).
	callees map[*types.Func][]*types.Func
}

// buildCallGraph scans the package's files and resolves every static call
// to a function or method declared in pkg.
func buildCallGraph(files []*ast.File, info *types.Info, pkg *types.Package) *callGraph {
	cg := &callGraph{
		decls:   map[*types.Func]*ast.FuncDecl{},
		callees: map[*types.Func][]*types.Func{},
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
			cg.decls[fn] = fd
		}
	}
	for fn, fd := range cg.decls {
		seen := map[*types.Func]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(info, call)
			if callee == nil || callee.Pkg() != pkg {
				return true
			}
			if _, declared := cg.decls[callee]; !declared || seen[callee] {
				return true
			}
			seen[callee] = true
			cg.callees[fn] = append(cg.callees[fn], callee)
			return true
		})
	}
	return cg
}

// staticCallee resolves a call expression to the function or method it
// statically invokes, or nil for indirect calls (function values,
// interface methods, conversions, builtins).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
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

// bottomUp visits every declared function callees-first: within a
// strongly connected component (mutual recursion) the members are
// revisited until no visit reports a change, so summary computations
// reach their fixpoint. Visit order is deterministic (position order
// within and across components).
func (cg *callGraph) bottomUp(visit func(fn *types.Func, decl *ast.FuncDecl) bool) {
	for _, scc := range cg.sccs() {
		for changed := true; changed; {
			changed = false
			for _, fn := range scc {
				if visit(fn, cg.decls[fn]) {
					changed = true
				}
			}
			if len(scc) == 1 && !slices.Contains(cg.callees[scc[0]], scc[0]) {
				break // no cycle: one pass suffices
			}
		}
	}
}

// sccs returns the condensation of the call graph in reverse topological
// (callees-first) order, deterministically: Tarjan's algorithm over
// functions sorted by declaration position.
func (cg *callGraph) sccs() [][]*types.Func {
	fns := make([]*types.Func, 0, len(cg.decls))
	for fn := range cg.decls {
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
		for _, w := range cg.callees[v] {
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
