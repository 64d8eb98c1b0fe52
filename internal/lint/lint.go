// Package lint is a minimal, dependency-free static-analysis framework
// modelled on golang.org/x/tools/go/analysis. The simulator's correctness
// rests on a convention the compiler cannot see — bit-identical
// deterministic replay — and this package is the machinery that turns it
// into a compile-time check. (Frame-pool ownership, the other such
// convention, is checked at run time: every test binary poisons its pools.)
//
// The API mirrors go/analysis deliberately (Analyzer, Pass, Diagnostic) so
// the custom analyzers would port to the real framework mechanically if the
// x/tools dependency ever becomes available; the toolchain here must build
// from the standard library alone.
//
// # Annotation grammar
//
// Source may carve out exceptions with a hydralint directive, written as a
// line comment:
//
//	//hydralint:nondeterministic <reason>
//
// A directive applies to the statement on the same line, or — when it
// stands alone on its line — to the line below it. It requires a non-empty
// reason; an empty reason or an unknown directive name is itself a
// diagnostic, so annotations cannot silently rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and command-line flags.
	Name string
	// Doc is the analyzer's documentation, shown by hydralint -help.
	Doc string
	// Run applies the analyzer to a package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// NewPass assembles a pass over a loaded package, appending diagnostics to
// out. The checker and the test harness both build passes through it.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, out *[]Diagnostic) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, diags: out}
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Inspect walks every file in the package in depth-first order, calling fn
// for each node; fn returning false prunes the subtree.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// SortDiagnostics orders diagnostics by file, line, column, then message,
// so output is stable regardless of analyzer execution order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// DirectivePrefix introduces a hydralint annotation comment.
const DirectivePrefix = "//hydralint:"

// DirNondeterministic is the one directive name the suite understands.
const DirNondeterministic = "nondeterministic"

// A Directive is one parsed //hydralint: annotation.
type Directive struct {
	Name   string // "nondeterministic", or an unknown name
	Reason string // text after the name, trimmed
	Pos    token.Pos
	// Line the directive governs: the comment's own line for a trailing
	// comment, the following line for a comment alone on its line.
	TargetLine int
	// Malformed holds a complaint when the directive does not parse
	// (unknown name, missing required reason); empty otherwise.
	Malformed string
}

// Directives extracts every hydralint directive from a file. The fset must
// be the one the file was parsed with.
func Directives(fset *token.FileSet, file *ast.File) []Directive {
	codeLines := codeEndLines(fset, file)
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, DirectivePrefix) {
				// A spaced "// hydralint:" is an ordinary comment by Go
				// directive convention, but flag the near-miss that was
				// clearly meant to be one: "//hydralint :" or "// hydralint:".
				if trimmed := strings.TrimSpace(strings.TrimPrefix(c.Text, "//")); strings.HasPrefix(trimmed, "hydralint:") && !strings.HasPrefix(c.Text, "//hydralint:") {
					out = append(out, Directive{
						Name: "", Pos: c.Pos(), TargetLine: -1,
						Malformed: "malformed hydralint directive: write //hydralint:<name> with no spaces",
					})
				}
				continue
			}
			rest := strings.TrimPrefix(c.Text, DirectivePrefix)
			name, reason, _ := strings.Cut(rest, " ")
			d := Directive{Name: name, Reason: strings.TrimSpace(reason), Pos: c.Pos()}
			line := fset.Position(c.Pos()).Line
			if codeLines[line] {
				d.TargetLine = line // trailing comment governs its own line
			} else {
				d.TargetLine = line + 1 // standalone comment governs the line below
			}
			switch name {
			case DirNondeterministic:
				if d.Reason == "" {
					d.Malformed = "//hydralint:nondeterministic requires a reason (//hydralint:nondeterministic <why this is safe>)"
				}
			default:
				d.Malformed = fmt.Sprintf("unknown hydralint directive %q (known: nondeterministic)", name)
			}
			out = append(out, d)
		}
	}
	return out
}

// codeEndLines returns the set of lines on which some non-comment node
// ends. A line comment on such a line trails code (nothing can follow a
// line comment), so the directive governs that line rather than the next.
func codeEndLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// DirectiveIndex answers "is this line covered by a well-formed directive?"
// queries for one file.
type DirectiveIndex struct {
	byLine map[int]*Directive
	all    []Directive
}

// IndexDirectives builds a DirectiveIndex for a file.
func IndexDirectives(fset *token.FileSet, file *ast.File) *DirectiveIndex {
	idx := &DirectiveIndex{byLine: map[int]*Directive{}}
	idx.all = Directives(fset, file)
	for i := range idx.all {
		d := &idx.all[i]
		if d.Malformed == "" && d.TargetLine >= 0 {
			idx.byLine[d.TargetLine] = d
		}
	}
	return idx
}

// Covering returns the well-formed directive named name governing the line
// of pos, or nil.
func (idx *DirectiveIndex) Covering(fset *token.FileSet, pos token.Pos, name string) *Directive {
	d := idx.byLine[fset.Position(pos).Line]
	if d != nil && d.Name == name {
		return d
	}
	return nil
}

// WellFormed returns every directive in the file that parsed cleanly, in
// source order. Analyzers use it to audit annotations: a well-formed
// directive that never suppresses a diagnostic is stale.
func (idx *DirectiveIndex) WellFormed() []*Directive {
	var out []*Directive
	for i := range idx.all {
		if idx.all[i].Malformed == "" {
			out = append(out, &idx.all[i])
		}
	}
	return out
}

// Malformed returns every directive in the file that failed to parse.
func (idx *DirectiveIndex) Malformed() []Directive {
	var out []Directive
	for _, d := range idx.all {
		if d.Malformed != "" {
			out = append(out, d)
		}
	}
	return out
}

// PathHasSuffixSegments reports whether path's trailing slash-separated
// segments equal suffix's segments ("hydranet/internal/sim" matches
// "internal/sim" but "internal/simulator" does not).
func PathHasSuffixSegments(path, suffix string) bool {
	ps := strings.Split(path, "/")
	ss := strings.Split(suffix, "/")
	if len(ss) > len(ps) {
		return false
	}
	tail := ps[len(ps)-len(ss):]
	for i := range ss {
		if tail[i] != ss[i] {
			return false
		}
	}
	return true
}
