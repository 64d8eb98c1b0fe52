package framepool

// Interprocedural ownership summaries. The positional machinery in
// framepool.go sees one function at a time; this file gives it eyes
// across same-package call boundaries. A bottom-up pass over the package
// call graph (callgraph.go) computes, for every declared function,
// what it may do to each *frame.Buf parameter:
//
//   - releases:  some path calls Release on the parameter's frame
//   - transfers: some path hands the frame to the fabric (SendFrame)
//   - escapes:   the frame may outlive the call — returned, stored in a
//     field/global/channel/composite, captured by a closure, or passed to
//     a callee this package cannot see into
//   - pure:      none of the above; the callee only reads
//
// and, for results, whether a returned slice aliases a parameter's
// backing array (returns-derived-slice, e.g. `func hdr(fb *frame.Buf)
// []byte { return fb.Bytes() }`).
//
// Callers consume the summaries three ways: a call to a releasing or
// transferring helper becomes an ownership-ending event (so a use after
// the call is flagged exactly like a use after a literal fb.Release());
// a call returning a derived slice extends the derived-slice map through
// the call; and a call to a pure helper no longer counts as a plausible
// hand-off, so a Get result whose only consumer is a read-only helper is
// reported as a pool leak. Named transfer callees (SendFrame) keep their
// dedicated transfer semantics and messages; summaries only speak for
// callees the name tables do not.
//
// Within a summarized function, parameters are tracked through local
// aliases (`g := fb`) by a small fixpoint, and mutual recursion is
// resolved by iterating each call-graph component until the summaries
// stop changing (facts only ever turn on, so this terminates).

import (
	"go/ast"
	"go/types"
	"sort"

	"hydranet/internal/lint"
)

// paramFacts is what a function may do to one *frame.Buf parameter.
type paramFacts struct {
	releases  bool
	transfers bool
	escapes   bool
}

// pure reports a parameter the function provably only reads.
func (p *paramFacts) pure() bool {
	return p != nil && !p.releases && !p.transfers && !p.escapes
}

// ownSummary is one function's ownership abstract.
type ownSummary struct {
	// params is indexed by parameter position (flattened across grouped
	// names); nil entries are non-Buf parameters.
	params []*paramFacts
	// resultDerived maps a result index to the parameter positions whose
	// frame the returned slice may alias.
	resultDerived map[int]map[int]bool
}

// param returns the facts for argument position i, nil-safe.
func (s *ownSummary) param(i int) *paramFacts {
	if s == nil || i < 0 || i >= len(s.params) {
		return nil
	}
	return s.params[i]
}

// derivedResultParams lists, sorted, the parameter positions aliased by
// result ri.
func (s *ownSummary) derivedResultParams(ri int) []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, len(s.resultDerived[ri]))
	for j := range s.resultDerived[ri] {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// pkgSummaries holds every function's summary for one package.
type pkgSummaries struct {
	info   *types.Info
	byFunc map[*types.Func]*ownSummary
}

// forCall resolves a call to its callee's summary, or nil when the callee
// is indirect, imported, or a builtin.
func (s *pkgSummaries) forCall(call *ast.CallExpr) *ownSummary {
	if s == nil {
		return nil
	}
	fn := staticCallee(s.info, call)
	if fn == nil {
		return nil
	}
	return s.byFunc[fn]
}

// computeSummaries runs the bottom-up fixpoint over the package.
func computeSummaries(pass *lint.Pass) *pkgSummaries {
	s := &pkgSummaries{info: pass.TypesInfo, byFunc: map[*types.Func]*ownSummary{}}
	cg := buildCallGraph(pass.Files, pass.TypesInfo, pass.Pkg)
	cg.bottomUp(func(fn *types.Func, decl *ast.FuncDecl) bool {
		ns := summarize(pass.TypesInfo, decl, s)
		old := s.byFunc[fn]
		s.byFunc[fn] = ns
		return !summariesEqual(old, ns)
	})
	return s
}

// summarize computes one function's summary given the (possibly still
// converging) summaries of its callees.
func summarize(info *types.Info, decl *ast.FuncDecl, s *pkgSummaries) *ownSummary {
	sum := &ownSummary{resultDerived: map[int]map[int]bool{}}
	slots := map[*types.Var]int{}
	if decl.Type.Params != nil {
		for _, f := range decl.Type.Params.List {
			names := f.Names
			if len(names) == 0 {
				sum.params = append(sum.params, nil) // unnamed: nothing to track
				continue
			}
			for _, name := range names {
				idx := len(sum.params)
				if v, ok := info.Defs[name].(*types.Var); ok && isBufPtr(v.Type()) {
					slots[v] = idx
					sum.params = append(sum.params, &paramFacts{})
				} else {
					sum.params = append(sum.params, nil)
				}
			}
		}
	}
	if len(slots) == 0 {
		return sum
	}

	// alias maps Buf-typed locals to the parameter they copy; derivedOf
	// maps slice locals to the parameters their bytes alias. Both grow to
	// fixpoint over the body's assignments.
	alias := map[*types.Var]int{}
	for v, i := range slots {
		alias[v] = i
	}
	derivedOf := map[*types.Var]map[int]bool{}

	resolveAlias := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		v, _ := info.Uses[id].(*types.Var)
		if v == nil {
			v, _ = info.Defs[id].(*types.Var)
		}
		if v == nil {
			return 0, false
		}
		i, ok := alias[v]
		return i, ok
	}

	var resolveDerived func(e ast.Expr) map[int]bool
	resolveDerived = func(e ast.Expr) map[int]bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok {
				return derivedOf[v]
			}
		case *ast.SliceExpr:
			return resolveDerived(e.X)
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && deriveMethods[sel.Sel.Name] {
				if i, ok := resolveAlias(sel.X); ok {
					return map[int]bool{i: true}
				}
			}
			if cs := s.forCall(e); cs != nil {
				out := map[int]bool{}
				for _, j := range cs.derivedResultParams(0) {
					if j < len(e.Args) {
						if i, ok := resolveAlias(e.Args[j]); ok {
							out[i] = true
						}
					}
				}
				if len(out) > 0 {
					return out
				}
			}
		}
		return nil
	}

	for changed := true; changed; {
		changed = false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				var v *types.Var
				if d, ok := info.Defs[id].(*types.Var); ok {
					v = d
				} else if u, ok := info.Uses[id].(*types.Var); ok {
					v = u
				}
				if v == nil {
					continue
				}
				if isBufPtr(v.Type()) {
					if j, ok := resolveAlias(as.Rhs[i]); ok {
						if _, has := alias[v]; !has {
							alias[v] = j
							changed = true
						}
					}
				} else if ds := resolveDerived(as.Rhs[i]); len(ds) > 0 {
					cur := derivedOf[v]
					if cur == nil {
						cur = map[int]bool{}
						derivedOf[v] = cur
					}
					for j := range ds {
						if !cur[j] {
							cur[j] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}

	mark := func(slot int, set func(*paramFacts)) {
		if slot >= 0 && slot < len(sum.params) && sum.params[slot] != nil {
			set(sum.params[slot])
		}
	}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure capturing the parameter may do anything with it
			// after this function returns.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						if i, ok := alias[v]; ok {
							mark(i, func(p *paramFacts) { p.escapes = true })
						}
					}
				}
				return true
			})
			return false
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && len(n.Args) == 0 {
				if i, ok := resolveAlias(sel.X); ok {
					mark(i, func(p *paramFacts) { p.releases = true })
					return true
				}
			}
			name := calleeName(n)
			cs := s.forCall(n)
			for ai, arg := range n.Args {
				i, ok := resolveAlias(arg)
				if !ok {
					continue
				}
				switch {
				case transferFuncs[name]:
					mark(i, func(p *paramFacts) { p.transfers = true })
				case cs != nil:
					if pf := cs.param(ai); pf != nil {
						if pf.releases {
							mark(i, func(p *paramFacts) { p.releases = true })
						}
						if pf.transfers {
							mark(i, func(p *paramFacts) { p.transfers = true })
						}
						if pf.escapes {
							mark(i, func(p *paramFacts) { p.escapes = true })
						}
					} else {
						mark(i, func(p *paramFacts) { p.escapes = true })
					}
				default:
					// Imported, indirect, or builtin callee: assume the worst.
					mark(i, func(p *paramFacts) { p.escapes = true })
				}
			}
		case *ast.ReturnStmt:
			for ri, r := range n.Results {
				if i, ok := resolveAlias(r); ok {
					mark(i, func(p *paramFacts) { p.escapes = true })
					continue
				}
				if ds := resolveDerived(r); len(ds) > 0 {
					cur := sum.resultDerived[ri]
					if cur == nil {
						cur = map[int]bool{}
						sum.resultDerived[ri] = cur
					}
					for j := range ds {
						cur[j] = true
					}
				}
			}
		case *ast.AssignStmt:
			if !allLhsLocal(info, n) {
				for _, rhs := range n.Rhs {
					if i, ok := resolveAlias(rhs); ok {
						mark(i, func(p *paramFacts) { p.escapes = true })
					}
				}
			}
		case *ast.SendStmt:
			if i, ok := resolveAlias(n.Value); ok {
				mark(i, func(p *paramFacts) { p.escapes = true })
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				x := e
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					x = kv.Value
				}
				if i, ok := resolveAlias(x); ok {
					mark(i, func(p *paramFacts) { p.escapes = true })
				}
			}
		}
		return true
	})
	return sum
}

// allLhsLocal reports whether every assignment target is a plain
// function-local identifier.
func allLhsLocal(info *types.Info, as *ast.AssignStmt) bool {
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		var v *types.Var
		if d, ok := info.Defs[id].(*types.Var); ok {
			v = d
		} else if u, ok := info.Uses[id].(*types.Var); ok {
			v = u
		}
		if v == nil {
			continue // blank identifier
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return false
		}
	}
	return true
}

// summariesEqual compares two summaries field by field.
func summariesEqual(a, b *ownSummary) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.params) != len(b.params) {
		return false
	}
	for i := range a.params {
		pa, pb := a.params[i], b.params[i]
		if (pa == nil) != (pb == nil) {
			return false
		}
		if pa != nil && *pa != *pb {
			return false
		}
	}
	if len(a.resultDerived) != len(b.resultDerived) {
		return false
	}
	for ri, da := range a.resultDerived {
		db := b.resultDerived[ri]
		if len(da) != len(db) {
			return false
		}
		for j := range da {
			if !db[j] {
				return false
			}
		}
	}
	return true
}
