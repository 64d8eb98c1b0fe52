// Package determinism enforces the simulator's bit-identical-replay
// contract. Flight-recorder dumps, golden outputs, benchmark digests and
// failure-injection reproductions are only trustworthy because a run with
// a given seed and topology is exactly reproducible; one stray wall-clock
// read or map-iteration-ordered emission silently breaks every one of
// them. The analyzer forbids, inside the simulation core packages:
//
//   - wall-clock and timer reads (time.Now, time.Since, time.Sleep, ...)
//   - the global math/rand and math/rand/v2 sources (unseeded; the
//     scheduler's seeded *rand.Rand is the only sanctioned randomness)
//   - any use of crypto/rand
//   - ranging over a map (iteration order is randomized per run)
//   - spawning goroutines and select statements (scheduling order is not
//     part of the virtual clock)
//
// A site that is genuinely order-insensitive — a commutative sum, a
// collect-then-sort loop — can be allowed with an annotation that names
// its justification:
//
//	//hydralint:nondeterministic <reason>
//
// The reason is mandatory; an annotation without one, or an unknown
// directive name anywhere in the repository, is reported by this analyzer
// so stale or typo'd exemptions cannot accumulate.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"hydranet/internal/lint"
)

// Analyzer is the determinism checker.
var Analyzer = &lint.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, global rand, map ranges, and goroutines in the deterministic simulation core",
	Run:  run,
}

// coveredPkgs are the package-path suffixes (segment-aligned) whose code
// must be deterministic. The lint framework and CLIs are exempt; test
// files are never loaded.
var coveredPkgs = []string{
	"internal/sim",
	"internal/netsim",
	"internal/tcp",
	"internal/ipv4",
	"internal/udp",
	"internal/redirector",
	// The protocol itself: the order in which ft-TCP, the management daemons
	// and the host server transmit is the run.
	"internal/core",
	"internal/rmp",
	"internal/hostserver",
	// Its rendering is every exported artifact.
	"internal/obs",
	// The telemetry sampler runs on the virtual clock inside the
	// simulation loop: a wall-clock read or map-ordered emission there
	// would make series exports (and hydrascope diffs of them) flap.
	"internal/series",
	// The invariant monitor's verdicts must be byte-identical across runs
	// of one seed: a map-ordered violation emission or wall-clock stamp
	// would break audit-report parity.
	"internal/invariant",
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

func run(pass *lint.Pass) error {
	covered := false
	for _, suffix := range coveredPkgs {
		if lint.PathHasSuffixSegments(pass.Pkg.Path(), suffix) {
			covered = true
			break
		}
	}

	for _, file := range pass.Files {
		idx := lint.IndexDirectives(pass.Fset, file)
		// Directive hygiene applies to every package hydralint sees, not
		// just the deterministic core.
		for _, d := range idx.Malformed() {
			pass.Reportf(d.Pos, "%s", d.Malformed)
		}
		// used tracks the annotations that suppressed (or stood ready to
		// suppress) a diagnostic; whatever remains unused is stale — the
		// construct it excused was removed or rewritten — and reported
		// below so annotations cannot outlive their reasons.
		used := map[*lint.Directive]bool{}
		if !covered {
			continue
		}
		allowed := func(pos token.Pos) bool {
			if d := idx.Covering(pass.Fset, pos, lint.DirNondeterministic); d != nil {
				used[d] = true
				return true
			}
			return false
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n, allowed)
			case *ast.RangeStmt:
				if tv, ok := pass.TypesInfo.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !allowed(n.Pos()) {
						pass.Reportf(n.Pos(), "map iteration order is nondeterministic; sort keys or annotate with //hydralint:nondeterministic <reason>")
					}
				}
			case *ast.GoStmt:
				if !allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "goroutine spawned in the deterministic simulation core; schedule work on the virtual clock instead")
				}
			case *ast.SelectStmt:
				if !allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "select statement in the deterministic simulation core; case choice is scheduler-dependent")
				}
			}
			return true
		})
		for _, d := range idx.WellFormed() {
			if !used[d] {
				pass.Reportf(d.Pos, "stale //hydralint:nondeterministic annotation: the line it governs has no nondeterministic construct to excuse; delete it")
			}
		}
	}
	return nil
}

func checkCall(pass *lint.Pass, call *ast.CallExpr, allowed func(token.Pos) bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	// Only package-level selector calls matter: methods on a seeded
	// *rand.Rand have a receiver and are the sanctioned path.
	if _, isPkgName := pass.TypesInfo.Uses[identOf(sel.X)].(*types.PkgName); !isPkgName {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if bannedTimeFuncs[obj.Name()] && !allowed(call.Pos()) {
			pass.Reportf(call.Pos(), "time.%s reads the wall clock; use the scheduler's virtual clock (sim.Scheduler.Now)", obj.Name())
		}
	case "math/rand", "math/rand/v2":
		if bannedGlobalRand[obj.Name()] && !allowed(call.Pos()) {
			pass.Reportf(call.Pos(), "global rand.%s is unseeded and nondeterministic; use the scheduler's seeded source (sim.Scheduler.Rand)", obj.Name())
		}
	case "crypto/rand":
		if !allowed(call.Pos()) {
			pass.Reportf(call.Pos(), "crypto/rand.%s is nondeterministic by design; the simulation core must use the scheduler's seeded source", obj.Name())
		}
	}
}

// identOf unwraps x to its identifier, if it is one.
func identOf(x ast.Expr) *ast.Ident {
	id, _ := x.(*ast.Ident)
	return id
}
