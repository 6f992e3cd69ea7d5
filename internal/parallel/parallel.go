// Package parallel provides the bounded worker pool shared by the
// measurement pipeline (network-bound fan-out) and the inference engine
// (CPU-bound sharding). Run guarantees that every index is processed
// exactly once and that all work has completed before it returns, so
// callers can merge worker output after the barrier without further
// synchronization.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism knob: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Run executes fn(i) for every i in [0,n) on up to `workers` goroutines
// and returns once all calls have finished. Indices are handed out
// dynamically (work stealing via a shared counter), so uneven per-item
// cost — a slow DNS resolution, a huge MX fan-in — does not idle the
// pool. With workers <= 1 (or n == 1) it runs inline on the caller's
// goroutine.
func Run(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
