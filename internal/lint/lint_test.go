package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestDirectives pins the annotation grammar: which names parse, which need
// a reason, and that anything else — a typo, or a directive retired with the
// analyzer it fed — is reported by name.
func TestDirectives(t *testing.T) {
	for _, tc := range []struct {
		comment   string
		malformed string // substring of the complaint; "" means well-formed
	}{
		{"//hydralint:nondeterministic commutative sum", ""},
		{"//hydralint:nondeterministic", "requires a reason"},
		{"//hydralint:nonsense whatever", `unknown hydralint directive "nonsense"`},
		// The parallel core's cross-domain exemption went with the core, the
		// alloc-free call-root mark with the zeroalloc analyzer.
		{"//hydralint:" + "domainsafe constructor", `unknown hydralint directive "domainsafe"`},
		{"//hydralint:" + "zeroalloc", `unknown hydralint directive "zeroalloc"`},
		{"// hydralint:nondeterministic spaced", "no spaces"},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", "package p\n\n"+tc.comment+"\nvar _ = 1\n", parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		ds := Directives(fset, f)
		if len(ds) != 1 {
			t.Errorf("%s: %d directives, want 1", tc.comment, len(ds))
			continue
		}
		got := ds[0].Malformed
		if (tc.malformed == "") != (got == "") || !strings.Contains(got, tc.malformed) {
			t.Errorf("%s: complaint %q, want one containing %q", tc.comment, got, tc.malformed)
		}
	}
}
