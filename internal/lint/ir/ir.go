// Package ir is the hydralint analyzers' intermediate representation: a
// per-function control-flow graph with def-use chains, a lattice-
// parameterized worklist dataflow solver, and a package call graph with a
// bottom-up summary pass. Like the rest of the lint suite it builds from
// the standard library alone (go/ast + go/types, no x/tools).
//
// A purely syntactic analysis — "Release earlier in this block" — goes
// blind the moment control flow branches or a fact crosses a call
// boundary. This package is the machinery that replaces such heuristics
// with proofs; the framepool analyzer's interprocedural ownership
// summaries run on its call graph.
//
// # Graph shape
//
// A CFG has one synthetic Entry and one synthetic Exit block; every
// return, panic, and normal fall-off-the-end path reaches Exit. Block
// elements are leaf statements and control-header expressions in
// evaluation order — an if statement contributes its Init and Cond to the
// block that branches, never its branches; a range statement contributes
// the *ast.RangeStmt itself as a header element (use Inspect, which
// understands headers, rather than ast.Inspect, which would descend into
// the body). Deferred calls are collected in Defers: they execute at Exit
// in an order no linear scan can see, so dataflow clients model them at
// function end (or ignore them) explicitly.
package ir

import (
	"go/ast"
	"go/token"
)

// A Block is one straight-line run of elements with explicit control
// edges.
type Block struct {
	Index int
	// Elems are leaf statements and control-header expressions, in
	// evaluation order. Composite statements never appear except
	// *ast.RangeStmt, which stands for its header (X, Key, Value); walk
	// elements with Inspect, which prunes nested bodies.
	Elems []ast.Node
	Succs []*Block
	Preds []*Block
}

// A CFG is one function body's control-flow graph.
type CFG struct {
	Body   *ast.BlockStmt
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers are the deferred calls in syntactic order; they run at Exit
	// (in reverse), on every path that reaches their DeferStmt.
	Defers []*ast.DeferStmt
}

// builder threads the loop/label context needed to wire branch edges.
type builder struct {
	cfg      *CFG
	cur      *Block
	breaks   []*Block          // innermost-last break targets (loops, switches, selects)
	conts    []*Block          // innermost-last continue targets (loops only)
	labels   map[string]*label // named break/continue/goto targets
	gotos    []pendingGoto
	curLabel *label // label awaiting its loop/switch statement, if any
}

type label struct {
	brk, cont *Block // labeled loop/switch targets (nil until known)
	stmt      *Block // the labeled statement's own block, for goto
}

type pendingGoto struct {
	from *Block
	name string
}

// Build constructs the CFG of body. It handles the full statement grammar
// (if/for/range/switch/type-switch/select, labeled break/continue, goto,
// fallthrough); panics and returns edge to Exit.
func Build(body *ast.BlockStmt) *CFG {
	cfg := &CFG{Body: body}
	b := &builder{cfg: cfg, labels: map[string]*label{}}
	cfg.Entry = b.newBlock()
	cfg.Exit = &Block{Index: -1} // renumbered last
	b.cur = cfg.Entry
	b.stmtList(body.List)
	b.edge(b.cur, cfg.Exit)
	for _, g := range b.gotos {
		if l := b.labels[g.name]; l != nil && l.stmt != nil {
			b.edge(g.from, l.stmt)
		} else {
			b.edge(g.from, cfg.Exit) // unresolvable: be conservative
		}
	}
	cfg.Exit.Index = len(cfg.Blocks)
	cfg.Blocks = append(cfg.Blocks, cfg.Exit)
	return cfg
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// edge links from → to, unless from is nil (dead code after a terminator).
func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// emit appends a leaf element to the current block (starting a fresh,
// unreachable block when the current one was terminated).
func (b *builder) emit(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock() // dead code still gets a block
	}
	b.cur.Elems = append(b.cur.Elems, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.emit(s.Init)
		b.emit(s.Cond)
		cond := b.cur
		merge := b.newBlock()
		thenB := b.newBlock()
		b.edge(cond, thenB)
		b.cur = thenB
		b.stmtList(s.Body.List)
		b.edge(b.cur, merge)
		if s.Else != nil {
			elseB := b.newBlock()
			b.edge(cond, elseB)
			b.cur = elseB
			b.stmt(s.Else)
			b.edge(b.cur, merge)
		} else {
			b.edge(cond, merge)
		}
		b.cur = merge
	case *ast.ForStmt:
		b.emit(s.Init)
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.emit(s.Cond)
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, exit)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.pushLoop(exit, post)
		b.cur = body
		b.stmtList(s.Body.List)
		b.popLoop()
		b.edge(b.cur, post)
		if s.Post != nil {
			b.cur = post
			b.emit(s.Post)
			b.edge(b.cur, head)
		}
		b.cur = exit
	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		head.Elems = append(head.Elems, s) // header stands for X/Key/Value
		body := b.newBlock()
		exit := b.newBlock()
		b.edge(head, body)
		b.edge(head, exit)
		b.pushLoop(exit, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.popLoop()
		b.edge(b.cur, head)
		b.cur = exit
	case *ast.SwitchStmt:
		b.emit(s.Init)
		b.emit(s.Tag)
		b.caseClauses(s.Body.List, false)
	case *ast.TypeSwitchStmt:
		b.emit(s.Init)
		b.emit(s.Assign)
		b.caseClauses(s.Body.List, false)
	case *ast.SelectStmt:
		b.caseClauses(s.Body.List, true)
	case *ast.LabeledStmt:
		name := s.Label.Name
		l := b.labels[name]
		if l == nil {
			l = &label{}
			b.labels[name] = l
		}
		// The labeled statement begins a fresh block so gotos can target it.
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		l.stmt = target
		b.curLabel = l // the loop/switch about to be built binds its targets
		b.stmt(s.Stmt)
		b.curLabel = nil
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.emit(s)
			if s.Label != nil {
				if l := b.labels[s.Label.Name]; l != nil {
					b.edge(b.cur, l.brk)
				}
			} else if n := len(b.breaks); n > 0 {
				b.edge(b.cur, b.breaks[n-1])
			}
			b.cur = nil
		case token.CONTINUE:
			b.emit(s)
			if s.Label != nil {
				if l := b.labels[s.Label.Name]; l != nil {
					b.edge(b.cur, l.cont)
				}
			} else if n := len(b.conts); n > 0 {
				b.edge(b.cur, b.conts[n-1])
			}
			b.cur = nil
		case token.GOTO:
			b.emit(s)
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{b.cur, s.Label.Name})
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled by caseClauses via edge to the next clause; the
			// statement itself is a no-op element.
			b.emit(s)
		}
	case *ast.ReturnStmt:
		b.emit(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil
	case *ast.DeferStmt:
		b.emit(s)
		b.cfg.Defers = append(b.cfg.Defers, s)
	case *ast.ExprStmt:
		b.emit(s)
		if isPanic(s.X) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}
	case nil:
		// nothing
	default:
		// Assign, Decl, IncDec, Send, Go, Empty: leaf statements.
		b.emit(s)
	}
}

// caseClauses wires a switch/type-switch/select body: every clause hangs
// off the header, break exits to the merge, fallthrough (switch only)
// falls into the next clause, and a missing default means the header can
// reach the merge directly (select without default blocks, but modeling
// the skip edge only adds paths, which is sound for may/must analyses).
func (b *builder) caseClauses(clauses []ast.Stmt, isSelect bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	merge := b.newBlock()
	b.pushSwitch(merge)
	hasDefault := false
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
	}
	for i, c := range clauses {
		var list []ast.Expr
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			list, stmts = c.List, c.Body
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			stmts = c.Body
			if c.Comm == nil {
				hasDefault = true
			} else {
				stmts = append([]ast.Stmt{c.Comm}, c.Body...)
			}
		}
		b.edge(head, bodies[i])
		b.cur = bodies[i]
		for _, e := range list {
			b.emit(e) // case expressions evaluate on the clause's path
		}
		fallsThrough := false
		for _, st := range stmts {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && br.Label == nil {
				fallsThrough = true
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(clauses) {
			b.edge(b.cur, bodies[i+1])
			b.cur = nil
		}
		b.edge(b.cur, merge)
	}
	if !hasDefault {
		b.edge(head, merge)
	}
	b.popSwitch()
	b.cur = merge
}

// pushLoop records break/continue targets; a label waiting on this loop
// gets its targets bound here.
func (b *builder) pushLoop(brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.conts = append(b.conts, cont)
	if b.curLabel != nil {
		b.curLabel.brk = brk
		b.curLabel.cont = cont
		b.curLabel = nil
	}
}

func (b *builder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.conts = b.conts[:len(b.conts)-1]
}

func (b *builder) pushSwitch(brk *Block) {
	b.breaks = append(b.breaks, brk)
	if b.curLabel != nil {
		b.curLabel.brk = brk
		b.curLabel = nil
	}
}

func (b *builder) popSwitch() {
	b.breaks = b.breaks[:len(b.breaks)-1]
}

func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// Inspect walks an element the way ast.Inspect would, except that a
// *ast.RangeStmt element stands only for its header: X, Key and Value are
// visited, the body is not (it lives in its own blocks).
func Inspect(elem ast.Node, fn func(ast.Node) bool) {
	if rs, ok := elem.(*ast.RangeStmt); ok {
		if rs.Key != nil {
			ast.Inspect(rs.Key, fn)
		}
		if rs.Value != nil {
			ast.Inspect(rs.Value, fn)
		}
		ast.Inspect(rs.X, fn)
		return
	}
	ast.Inspect(elem, fn)
}
