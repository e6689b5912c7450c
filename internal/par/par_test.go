package par

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		var done [50]atomic.Int32
		errs := For(50, workers, func(_, i int) error {
			done[i].Add(1)
			return nil
		})
		if err := FirstError(errs); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range done {
			if got := done[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForWorkerIdsAreDistinctSlots(t *testing.T) {
	const workers = 4
	var slots [workers]atomic.Int32
	For(200, workers, func(w, _ int) error {
		slots[w].Add(1) // out-of-range w would panic
		return nil
	})
}

func TestForFailFast(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	errs := For(1000, 1, func(_, i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(FirstError(errs), boom) {
		t.Fatalf("FirstError = %v", FirstError(errs))
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("sequential run executed %d indices after failure at 3", got)
	}
	// Parallel: once the failure is recorded, unstarted indices are
	// skipped. Every other index waits until then, so each of the other
	// workers runs at most the one index it holds, whatever the schedule.
	const workers = 4
	recorded := make(chan struct{})
	failureRecorded = func() { close(recorded) }
	defer func() { failureRecorded = nil }()
	ran.Store(0)
	errs = For(1000, workers, func(_, i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		<-recorded
		return nil
	})
	if !errors.Is(FirstError(errs), boom) {
		t.Fatalf("parallel FirstError = %v", FirstError(errs))
	}
	if got := ran.Load(); got > workers {
		t.Fatalf("parallel run executed %d indices, want at most %d after failure at 0", got, workers)
	}
}

func TestForZeroN(t *testing.T) {
	if errs := For(0, 4, func(_, _ int) error { t.Fatal("called"); return nil }); len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
}
