//go:build hydralint_excluded

package sim

import "time"

// excludedClock carries no want: its build tag keeps it out of the load,
// so the wall-clock read below must never be reported.
func excludedClock() { sink = time.Now() }
