// Package other is determinism-analyzer testdata for the *uncovered*
// case: its import path matches none of the simulation-core suffixes, so
// wall clocks, global rand, and map ranges are all permitted — only
// directive hygiene and the stale-excuse audit still apply.
package other

import (
	"math/rand"
	"time"
)

var sink any

// freeCode may use everything the simulation core may not.
func freeCode(m map[string]int) {
	sink = time.Now()
	sink = rand.Intn(10)
	for k := range m {
		sink = k
	}
	go func() {}()
}

// hygiene: malformed directives are flagged even outside the covered set.
func hygiene() {
	var _ = 1 /* want "requires a reason" */ //hydralint:nondeterministic
	var _ = 2 /* want "unknown hydralint directive" */ //hydralint:nonsense whatever
}

// staleOutsideTheCore: nothing needs excusing outside the covered set, so a
// well-formed excuse here is stale, and a spaced near-miss is malformed.
func staleOutsideTheCore(m map[string]int) {
	for k := range m { /* want "stale" */ //hydralint:nondeterministic copied from the core
		sink = k
	}
	var _ = 3 /* want "no spaces" */ // hydralint:nondeterministic spaced
}
