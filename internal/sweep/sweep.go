// Package sweep fans independent simulation runs across OS threads.
//
// Every testbed run owns a private scheduler, network and frame pool, so a
// parameter sweep (seeds × configurations) is embarrassingly parallel: jobs
// share nothing but the result slice, each slot of which is written by
// exactly one worker. Determinism is unaffected — parallelism changes only
// which host thread executes a run, never the order of events inside it.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(i) for every i in [0, n) across min(workers, n) goroutines
// and returns the results in index order. workers <= 0 selects GOMAXPROCS.
// fn must be self-contained: anything it touches besides its own result
// slot must be read-only or thread-local.
func Map[T any](workers, n int, fn func(int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
