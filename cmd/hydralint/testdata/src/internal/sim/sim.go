// Package sim is determinism-analyzer testdata. Its import path ends in
// internal/sim, so it lands inside the analyzer's covered set; the
// seeded violations below must each be caught, and the annotated or
// sanctioned patterns must stay clean.
package sim

import (
	crand "crypto/rand"
	"math/rand"
	"sort"
	"time"
)

var sink any

// wallClock exercises the banned time functions.
func wallClock() {
	t := time.Now()             // want "time.Now reads the wall clock"
	sink = time.Since(t)        // want "time.Since reads the wall clock"
	time.Sleep(time.Nanosecond) // want "time.Sleep reads the wall clock"

	// Pure duration arithmetic never touches the wall clock: clean.
	var d time.Duration = 5 * time.Millisecond
	sink = d + time.Second
}

// globalRand exercises the unseeded shared source.
func globalRand() {
	sink = rand.Intn(10) // want "global rand.Intn is unseeded"
}

func globalRandShuffle() {
	rand.Shuffle(3, func(i, j int) {}) // want "global rand.Shuffle is unseeded"
}

// seededRand is the sanctioned pattern: an explicit source, methods on the
// instance. Clean.
func seededRand() {
	r := rand.New(rand.NewSource(42))
	sink = r.Intn(10)
	sink = r.Float64()
}

// cryptoRand is nondeterministic by construction.
func cryptoRand() {
	var buf [8]byte
	crand.Read(buf[:]) // want "crypto/rand.Read is nondeterministic by design"
}

// mapOrder exercises map-range detection and its annotation escape hatch.
func mapOrder(m map[string]int) []string {
	for k := range m { // want "map iteration order is nondeterministic"
		sink = k
	}

	// Trailing annotation with a reason: clean.
	total := 0
	for _, v := range m { //hydralint:nondeterministic commutative sum; order cannot affect the total
		total += v
	}
	sink = total

	// Standalone annotation on the line above: clean.
	var keys []string
	//hydralint:nondeterministic collect-then-sort; order is repaired below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Ranging over a slice is always fine.
	for _, k := range keys {
		sink = k
	}
	return keys
}

// concurrency exercises the goroutine and select bans.
func concurrency(ch chan int) {
	go func() {}() // want "goroutine spawned in the deterministic simulation core"

	select { // want "select statement in the deterministic simulation core"
	case v := <-ch:
		sink = v
	default:
	}
}

// annotations exercises directive hygiene: a reasonless nondeterministic
// annotation and an unknown directive name are themselves diagnostics.
func annotations(m map[int]int) {
	for k := range m { /* want "requires a reason" "map iteration order is nondeterministic" */ //hydralint:nondeterministic
		sink = k
	}
	var _ = 0 /* want "unknown hydralint directive" */ //hydralint:fastpath because reasons
}

// clockValue reads the wall clock wherever it is called, so taking the
// function value is the same violation as the call.
var clockValue = time.Now // want "time.Now reads the wall clock"

// staleExcuse: ranging over a slice is always fine, so an excuse there
// excuses nothing and is reported.
func staleExcuse(keys []string) {
	for _, k := range keys { /* want "stale" */ //hydralint:nondeterministic keys are sorted
		sink = k
	}
}
