// Package par provides the one bounded index-worker pool shared by the TPO
// builder, the trial runner and the experiment sweeps. Keeping the pattern
// in one place keeps its semantics uniform: work is identified by index,
// results land in caller-owned per-index slots (so output order never
// depends on scheduling), and a failure stops unstarted work.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(worker, i) for every i in [0, n), using up to `workers`
// goroutines; workers is clamped to [1, n]. The worker argument identifies
// the executing goroutine (in [0, clamped workers)), so callers can keep
// per-worker scratch in a slice. Once any fn returns a non-nil error,
// indices not yet started are skipped (already-running calls finish); with
// one worker this is a plain fail-fast loop. The returned slice holds fn's
// error per index — nil for successes and for skipped indices — so callers
// can surface the lowest-index error deterministically (see FirstError).
func For(n, workers int, fn func(worker, i int) error) []error {
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if errs[i] = fn(0, i); errs[i] != nil {
				break
			}
		}
		return errs
	}
	var failed atomic.Bool
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range ch {
				if failed.Load() {
					continue
				}
				if errs[i] = fn(w, i); errs[i] != nil {
					failed.Store(true)
					if failureRecorded != nil {
						failureRecorded()
					}
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return errs
}

// failureRecorded, when non-nil, runs in a parallel For worker right after
// it has recorded a failure, so a test can hold the other workers until
// then. Only this package's tests set it.
var failureRecorded func()

// FirstError returns the lowest-index non-nil error, or nil. Reporting the
// lowest index (rather than whichever goroutine failed first on the clock)
// matches what a sequential pass over the same work would have hit first.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
