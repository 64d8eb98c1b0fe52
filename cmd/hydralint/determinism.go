package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// A diagnostic is one finding, positioned in the analyzed source.
type diagnostic struct {
	pos token.Position
	msg string
}

// coveredPkgs are the package-path suffixes (segment-aligned) whose code
// must be deterministic. The CLIs are exempt; test files are never loaded.
var coveredPkgs = []string{
	// The stack.
	"internal/sim", "internal/netsim", "internal/tcp", "internal/ipv4", "internal/udp", "internal/redirector",
	// The protocol itself: the order in which ft-TCP, the management daemons
	// and the host server transmit is the run.
	"internal/core", "internal/rmp", "internal/hostserver",
	// Its rendering is every exported artifact.
	"internal/obs",
	// The address helpers and the frame pool run inside the simulation
	// loop; metrics and capture write its artifacts.
	"internal/inet", "internal/frame", "internal/metrics", "internal/capture",
	// The invariant monitor's verdicts must be byte-identical across runs
	// of one seed: a map-ordered violation emission or wall-clock stamp
	// would break audit-report parity.
	"internal/invariant",
	// The applications and ttcp run on the scheduler: they write the traffic.
	"internal/app", "internal/ttcp",
	// The facade: topology, deployment and fault injection drive the run,
	// and Net.Snapshot/Diff are the counters every export and the benchmark
	// digest read.
	"hydranet",
}

// bannedTimeFuncs read the wall clock or the runtime timer heap.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// bannedGlobalRand are math/rand (and v2) package-level functions that
// draw from the shared, unseeded source. Constructors (New, NewSource,
// NewPCG, NewChaCha8) are fine: they feed explicitly seeded generators.
var bannedGlobalRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint32": true, "Uint64": true, "Uint64N": true, "UintN": true, "Uint": true,
	"IntN": true, "Int32": true, "Int32N": true, "N": true,
	"Float32": true, "Float64": true, "NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// An excuse is one well-formed //hydralint:nondeterministic directive.
type excuse struct {
	pos  token.Pos
	line int // the line it governs
	used bool
}

// check applies the determinism rules to one package. Directive hygiene
// and the stale-excuse audit apply to every package; the rules themselves
// only to the covered ones, so outside them every excuse is stale.
func check(p *loadedPkg) []diagnostic {
	var diags []diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, diagnostic{p.fset.Position(pos), msg})
	}
	covered := slices.ContainsFunc(coveredPkgs, func(s string) bool {
		return p.path == s || strings.HasSuffix(p.path, "/"+s)
	})
	for _, file := range p.files {
		excuses := directives(p.fset, file, report)
		// allowed marks the excuse governing pos's line as used; the last
		// one wins when two govern the same line.
		allowed := func(pos token.Pos) bool {
			line := p.fset.Position(pos).Line
			for i := len(excuses) - 1; i >= 0; i-- {
				if excuses[i].line == line {
					excuses[i].used = true
					return true
				}
			}
			return false
		}
		if covered {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if msg := bannedRef(p.info, n); msg != "" && !allowed(n.Pos()) {
						report(n.Pos(), msg)
					}
				case *ast.RangeStmt:
					if tv, ok := p.info.Types[n.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !allowed(n.Pos()) {
							report(n.Pos(), "map iteration order is nondeterministic; sort keys or annotate with //hydralint:nondeterministic <reason>")
						}
					}
				case *ast.GoStmt:
					if !allowed(n.Pos()) {
						report(n.Pos(), "goroutine spawned in the deterministic simulation core; schedule work on the virtual clock instead")
					}
				case *ast.SelectStmt:
					if !allowed(n.Pos()) {
						report(n.Pos(), "select statement in the deterministic simulation core; case choice is scheduler-dependent")
					}
				}
				return true
			})
		}
		// An excuse that suppressed nothing is stale: the construct it
		// excused was removed or rewritten, so the excuse goes too.
		for _, e := range excuses {
			if !e.used {
				report(e.pos, "stale //hydralint:nondeterministic annotation: the line it governs has no nondeterministic construct to excuse; delete it")
			}
		}
	}
	return diags
}

// bannedRef returns the complaint about a package-qualified reference to a
// nondeterministic function, or "". A reference is enough: a function value
// such as `var clock = time.Now` reads the wall clock wherever it is called.
// Methods on a seeded *rand.Rand have a receiver, not a package, and are the
// sanctioned path.
func bannedRef(info *types.Info, sel *ast.SelectorExpr) string {
	x, _ := sel.X.(*ast.Ident)
	if _, isPkg := info.Uses[x].(*types.PkgName); !isPkg {
		return ""
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	name := obj.Name()
	switch obj.Pkg().Path() {
	case "time":
		if bannedTimeFuncs[name] {
			return "time." + name + " reads the wall clock; use the scheduler's virtual clock (sim.Scheduler.Now)"
		}
	case "math/rand", "math/rand/v2":
		if bannedGlobalRand[name] {
			return "global rand." + name + " is unseeded and nondeterministic; use the scheduler's seeded source (sim.Scheduler.Rand)"
		}
	case "crypto/rand":
		return "crypto/rand." + name + " is nondeterministic by design; the simulation core must use the scheduler's seeded source"
	}
	return ""
}

// directives parses every //hydralint: comment in file, reports the
// malformed ones and returns the well-formed excuses in source order.
//
// The grammar is one line comment, //hydralint:nondeterministic <reason>.
// It governs the statement on its own line or, standing alone on its line,
// the line below. An empty reason, an unknown directive name and the
// spaced near-miss "// hydralint:" are each a diagnostic, so annotations
// cannot silently rot.
func directives(fset *token.FileSet, file *ast.File, report func(token.Pos, string)) []excuse {
	// A line comment on a line where some non-comment node ends trails
	// code (nothing can follow a line comment), so it governs that line.
	codeLines := map[int]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		codeLines[fset.Position(n.End()).Line] = true
		return true
	})
	var out []excuse
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//hydralint:")
			if !ok {
				// A spaced "// hydralint:" is an ordinary comment by Go
				// directive convention, but clearly meant to be one.
				if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "hydralint:") {
					report(c.Pos(), "malformed hydralint directive: write //hydralint:<name> with no spaces")
				}
				continue
			}
			name, reason, _ := strings.Cut(rest, " ")
			switch {
			case name != "nondeterministic":
				report(c.Pos(), fmt.Sprintf("unknown hydralint directive %q (known: nondeterministic)", name))
			case strings.TrimSpace(reason) == "":
				report(c.Pos(), "//hydralint:nondeterministic requires a reason (//hydralint:nondeterministic <why this is safe>)")
			default:
				line := fset.Position(c.Pos()).Line
				if !codeLines[line] {
					line++ // a standalone comment governs the line below
				}
				out = append(out, excuse{pos: c.Pos(), line: line})
			}
		}
	}
	return out
}
