// Package invariant is determinism-analyzer testdata. Its import path ends
// in internal/invariant, so the invariant monitor's package is inside the
// covered set: the monitor judges every event inside the simulation loop,
// and the tempting mistakes below — stamping a violation with the wall
// clock, sampling events from the global source, emitting verdicts in map
// order — must each be caught.
package invariant

import (
	"math/rand"
	"sort"
	"time"
)

var sink any

type violation struct {
	at   time.Duration
	rule string
}

type monitor struct {
	byRule map[string]*[]violation
}

// stampWallClock stamps a violation with the host's clock instead of the
// scheduler's virtual now.
func stampWallClock(vs *[]violation, rule string) {
	*vs = append(*vs, violation{at: time.Duration(time.Now().UnixNano()), rule: rule}) // want "time.Now reads the wall clock"
}

// sampleEvents checks one event in n, picked by the unseeded global source.
func sampleEvents(n int64) bool {
	return rand.Int63n(n) == 0 // want "global rand.Int63n is unseeded"
}

// rulesUnordered walks the rule map directly: the audit's rule order would
// change run to run, and identical-seed audits would no longer be equal.
func rulesUnordered(m *monitor) []string {
	var rules []string
	for rule := range m.byRule { // want "map iteration order is nondeterministic"
		rules = append(rules, rule)
	}
	return rules
}

// rulesSorted is the sanctioned shape: collect under an annotation that
// names why the order doesn't matter, then repair it.
func rulesSorted(m *monitor) []string {
	var rules []string
	//hydralint:nondeterministic collect-then-sort; order is repaired below
	for rule := range m.byRule {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	return rules
}

// asyncReport moves the report off the simulation goroutine — scheduling
// order is not part of the virtual clock.
func asyncReport(m *monitor) {
	go func() { sink = rulesSorted(m) }() // want "goroutine spawned in the deterministic simulation core"
}

// virtualClockMath is pure duration arithmetic: clean.
func virtualClockMath(now, window time.Duration) time.Duration {
	return now + window
}
