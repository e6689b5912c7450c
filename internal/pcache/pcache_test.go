package pcache

import (
	"sync"
	"testing"

	"crowdtopk/internal/dist"
)

func mustUniform(t *testing.T, lo, hi float64) dist.Distribution {
	t.Helper()
	u, err := dist.NewUniform(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestCachedEqualsUncached is the cache-correctness contract: a cached π_ij
// is bit-identical to the uncached dist.ProbGreater value, and the flipped
// orientation returns the exact complement.
func TestCachedEqualsUncached(t *testing.T) {
	Reset()
	pairs := [][2]dist.Distribution{
		{mustUniform(t, 0, 1), mustUniform(t, 0.5, 1.5)},
		{mustUniform(t, 0, 2), mustUniform(t, 1, 1.2)},
		{mustUniform(t, 0, 1), mustUniform(t, 2, 3)},
	}
	if g, err := dist.NewGaussian(0.3, 0.2); err == nil {
		pairs = append(pairs, [2]dist.Distribution{g, mustUniform(t, 0, 1)})
	}
	for i, pr := range pairs {
		want := dist.ProbGreater(pr[0], pr[1])
		if got := ProbGreater(pr[0], pr[1]); got != want {
			t.Errorf("pair %d: first lookup = %v, want uncached %v", i, got, want)
		}
		if got := ProbGreater(pr[0], pr[1]); got != want {
			t.Errorf("pair %d: cached lookup = %v, want %v", i, got, want)
		}
		if got := ProbGreater(pr[1], pr[0]); got != 1-want {
			t.Errorf("pair %d: flipped lookup = %v, want complement %v", i, got, 1-want)
		}
	}
	st := Stats()
	// Per pair: one miss, then one forward hit and one flipped hit; both
	// orientations are stored on the miss.
	if wantMisses := int64(len(pairs)); st.Misses != wantMisses {
		t.Errorf("misses = %d, want %d", st.Misses, wantMisses)
	}
	if wantHits := int64(2 * len(pairs)); st.Hits != wantHits {
		t.Errorf("hits = %d, want %d", st.Hits, wantHits)
	}
	if wantEntries := int64(2 * len(pairs)); st.Entries != wantEntries {
		t.Errorf("entries = %d, want %d", st.Entries, wantEntries)
	}
}

// TestSamePair: a distribution compared against itself keeps the exact
// ProbGreater convention (0.5) and does not corrupt the complement entry.
func TestSamePair(t *testing.T) {
	Reset()
	u := mustUniform(t, 0, 1)
	for i := 0; i < 3; i++ {
		if got := ProbGreater(u, u); got != 0.5 {
			t.Fatalf("ProbGreater(u, u) = %v, want 0.5", got)
		}
	}
}

// TestConcurrentAccess hammers one pair from many goroutines; run under
// -race this pins the concurrency-safety claim, and every goroutine must see
// the same value.
func TestConcurrentAccess(t *testing.T) {
	Reset()
	a, b := mustUniform(t, 0, 1), mustUniform(t, 0.3, 1.3)
	want := ProbGreater(a, b) // prime: fixes which orientation was computed
	var wg sync.WaitGroup
	errs := make(chan float64, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// Both orientations; the flipped one must be the exact
				// stored complement (compare in the stored domain —
				// 1-(1-p) can re-round away from p).
				got, expect := ProbGreater(a, b), want
				if (g+i)%2 == 1 {
					got, expect = ProbGreater(b, a), 1-want
				}
				if got != expect {
					select {
					case errs <- got:
					default:
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Fatalf("concurrent lookup = %v, want %v", got, want)
	}
}

// TestReset: statistics and entries drop to zero and the next lookup
// recomputes.
func TestReset(t *testing.T) {
	Reset()
	a, b := mustUniform(t, 0, 1), mustUniform(t, 0.2, 1.2)
	before := Stats().Resets
	ProbGreater(a, b)
	ProbGreater(a, b)
	Reset()
	st := Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("after Reset: %+v, want zero hits/misses/entries", st)
	}
	if st.Resets != before+1 {
		t.Fatalf("resets = %d, want %d (counter must survive Reset)", st.Resets, before+1)
	}
	ProbGreater(a, b)
	if st := Stats(); st.Misses != 1 {
		t.Fatalf("post-Reset lookup should recompute; misses = %d", st.Misses)
	}
}

// TestPrewarm: the bulk fill computes every pair once (both orientations
// stored), reports the fresh-pair count, accumulates cumulative telemetry,
// and turns subsequent lookups into pure hits.
func TestPrewarm(t *testing.T) {
	Reset()
	dists := []dist.Distribution{
		mustUniform(t, 0, 1),
		mustUniform(t, 0.3, 1.3),
		mustUniform(t, 0.6, 1.6),
		mustUniform(t, 0.9, 1.9),
	}
	pairsBefore := Stats().PrewarmPairs
	const pairs = 4 * 3 / 2
	if got := Prewarm(dists, 3); got != pairs {
		t.Fatalf("cold Prewarm computed %d pairs, want %d", got, pairs)
	}
	st := Stats()
	if st.Entries != 2*pairs {
		t.Fatalf("entries = %d, want %d (both orientations)", st.Entries, 2*pairs)
	}
	if st.PrewarmPairs != pairsBefore+pairs {
		t.Fatalf("prewarm pairs = %d, want %d", st.PrewarmPairs, pairsBefore+pairs)
	}
	if st.PrewarmNanos <= 0 {
		t.Fatal("prewarm fill time not recorded")
	}
	if st.Misses != pairs || st.Hits != 0 {
		t.Fatalf("cold Prewarm counted %d misses / %d hits, want %d / 0 (one lookup per pair)", st.Misses, st.Hits, pairs)
	}
	// A warm repeat computes nothing new.
	if got := Prewarm(dists, 0); got != 0 {
		t.Fatalf("warm Prewarm recomputed %d pairs, want 0", got)
	}
	if st := Stats(); st.Misses != pairs || st.Hits != pairs {
		t.Fatalf("warm Prewarm counted %d misses / %d hits, want %d / %d", st.Misses, st.Hits, pairs, pairs)
	}
	missesBefore := Stats().Misses
	for i := range dists {
		for j := range dists {
			if i != j {
				ProbGreater(dists[i], dists[j])
			}
		}
	}
	st = Stats()
	if st.Misses != missesBefore {
		t.Fatalf("lookups after Prewarm missed (%d → %d misses)", missesBefore, st.Misses)
	}
	if st.HitRate <= 0 || st.HitRate > 1 {
		t.Fatalf("hit rate = %g, want in (0, 1]", st.HitRate)
	}
}

// TestPrewarmSkipsOversizedDatasets: a fill larger than one generation
// cannot land in one; Prewarm must refuse it outright and leave the
// telemetry untouched, while the largest fill that fits goes through.
func TestPrewarmSkipsOversizedDatasets(t *testing.T) {
	Reset()
	// 129·128 ordered pairs > genSize (1<<14) ≥ 128·127.
	dists := make([]dist.Distribution, 129)
	for i := range dists {
		dists[i] = mustUniform(t, float64(i), float64(i)+1)
	}
	before := Stats()
	if got := Prewarm(dists, 2); got != 0 {
		t.Fatalf("oversized Prewarm computed %d pairs, want 0 (skipped)", got)
	}
	after := Stats()
	if after.PrewarmPairs != before.PrewarmPairs || after.Entries != before.Entries {
		t.Fatalf("oversized Prewarm touched the cache: %+v → %+v", before, after)
	}
	if got, want := Prewarm(dists[:128], 2), 128*127/2; got != want {
		t.Fatalf("Prewarm of 128 tuples computed %d pairs, want %d", got, want)
	}
}

// TestWindowStats: the windowed rate reflects only the traffic between two
// WindowStats calls, where the cumulative Snapshot.HitRate keeps averaging
// over everything since Reset.
func TestWindowStats(t *testing.T) {
	Reset()
	a, b := mustUniform(t, 0, 1), mustUniform(t, 0.5, 1.5)
	WindowStats() // close out whatever earlier tests left in the window

	// Window 1: one miss (first lookup) + two hits.
	ProbGreater(a, b)
	ProbGreater(a, b)
	ProbGreater(b, a)
	w := WindowStats()
	if w.Misses != 1 || w.Hits != 2 {
		t.Fatalf("window 1 = %+v, want 2 hits / 1 miss", w)
	}
	if want := 2.0 / 3.0; w.HitRate != want {
		t.Fatalf("window 1 hit rate = %g, want %g", w.HitRate, want)
	}

	// Window 2: all hits. The cumulative rate still remembers the miss; the
	// window must not.
	for i := 0; i < 5; i++ {
		ProbGreater(a, b)
	}
	w = WindowStats()
	if w.Hits != 5 || w.Misses != 0 || w.HitRate != 1 {
		t.Fatalf("window 2 = %+v, want 5 hits / 0 misses / rate 1", w)
	}
	if cum := Stats().HitRate; cum >= 1 {
		t.Fatalf("cumulative rate = %g, should still count the window-1 miss", cum)
	}

	// An empty window reports zeros, not NaN.
	if w = WindowStats(); w.Hits != 0 || w.Misses != 0 || w.HitRate != 0 {
		t.Fatalf("empty window = %+v, want zeros", w)
	}

	// A Reset inside the window restarts the cursor instead of going
	// negative: only traffic after the Reset is reported.
	ProbGreater(a, b)
	Reset()
	ProbGreater(a, b) // miss again: the cache was cleared
	w = WindowStats()
	if w.Hits != 0 || w.Misses != 1 {
		t.Fatalf("window across Reset = %+v, want 0 hits / 1 miss", w)
	}
}

// freshUniforms returns n new uniform distributions, overlapping in a
// ladder, whose pairs nothing has cached yet.
func freshUniforms(t *testing.T, n int) []dist.Distribution {
	t.Helper()
	ds := make([]dist.Distribution, n)
	for i := range ds {
		u, err := dist.NewUniform(float64(i)*0.5, float64(i)*0.5+3)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = u
	}
	return ds
}

// curLen is the size of the current generation.
func curLen() int {
	mu.RLock()
	defer mu.RUnlock()
	return len(cur)
}

// insertFresh stores one pair nothing has cached yet.
func insertFresh(t *testing.T) {
	t.Helper()
	ab := freshUniforms(t, 2)
	ProbGreater(ab[0], ab[1])
}

// fillCurTo inserts fresh pairs until the current generation holds at least
// want (≤ genSize) entries.
func fillCurTo(t *testing.T, want int) {
	t.Helper()
	for curLen() < want {
		insertFresh(t)
	}
}

// rotate inserts fresh pairs until the current generation is retired: only
// a rotation ever shrinks it.
func rotate(t *testing.T) {
	t.Helper()
	for {
		before := curLen()
		insertFresh(t)
		if curLen() < before {
			return
		}
	}
}

// TestEntriesBoundedByTwoGenerations: the pairs of many fresh N=24 datasets
// (served creates parse new distributions every time) rotate generations
// instead of growing the cache.
func TestEntriesBoundedByTwoGenerations(t *testing.T) {
	Reset()
	const datasets = 100 // 100·24·23 entries ≈ 3.4 generations
	peak := int64(0)
	for d := 0; d < datasets; d++ {
		// Every pair in its canonical (i < j) orientation, as trees ask.
		ds := freshUniforms(t, 24)
		for i := range ds {
			for j := i + 1; j < len(ds); j++ {
				ProbGreater(ds[i], ds[j])
			}
		}
		e := Stats().Entries
		if e > 2*genSize {
			t.Fatalf("after %d datasets: %d entries, above two generations (%d)", d+1, e, 2*genSize)
		}
		peak = max(peak, e)
	}
	if peak <= genSize {
		t.Fatalf("peak %d entries never passed one generation; the test inserted too little", peak)
	}
	if st := Stats(); st.Misses != datasets*24*23/2 {
		t.Fatalf("misses = %d, want one per pair (%d)", st.Misses, datasets*24*23/2)
	}
}

// TestRotationKeepsValues: a pair's value is bit-identical to the uncached
// kernel while it sits in the current generation, after a rotation moved it
// to the previous one, and after a second rotation dropped it and it was
// recomputed; the flipped pair returns the complement each time.
func TestRotationKeepsValues(t *testing.T) {
	Reset()
	pairs := [][2]dist.Distribution{
		{mustUniform(t, 0, 1), mustUniform(t, 0.5, 1.5)},
		{mustUniform(t, 0, 2), mustUniform(t, 1, 1.2)},
	}
	if g, err := dist.NewGaussian(0.3, 0.2); err == nil {
		pairs = append(pairs, [2]dist.Distribution{g, mustUniform(t, 0, 1)})
	}
	check := func(stage string) {
		t.Helper()
		for i, pr := range pairs {
			want := dist.ProbGreater(pr[0], pr[1])
			if got := ProbGreater(pr[0], pr[1]); got != want {
				t.Errorf("%s: pair %d = %v, want uncached %v", stage, i, got, want)
			}
			if got := ProbGreater(pr[1], pr[0]); got != 1-want {
				t.Errorf("%s: flipped pair %d = %v, want complement %v", stage, i, got, 1-want)
			}
		}
	}
	check("current generation")
	for rotation, stage := range []string{"previous generation", "recomputed"} {
		rotate(t)
		missesBefore := Stats().Misses
		check(stage)
		misses := Stats().Misses - missesBefore
		if rotation == 0 && misses != 0 {
			t.Errorf("%s: %d misses, want none (one rotation keeps a pair)", stage, misses)
		}
		if rotation == 1 && misses != int64(len(pairs)) {
			t.Errorf("%s: %d misses, want %d (two rotations drop a pair)", stage, misses, len(pairs))
		}
	}
}

// TestPrewarmSurvivesRotation: a dataset prewarmed just before a rotation,
// whether its fill just fits the current generation or does not, still
// gets only hits after the rotation.
func TestPrewarmSurvivesRotation(t *testing.T) {
	const n = 24
	for _, room := range []int{n * (n - 1), n*(n-1) - 2} {
		Reset()
		fillCurTo(t, genSize-room)
		ds := freshUniforms(t, n)
		if got := Prewarm(ds, 2); got != n*(n-1)/2 {
			t.Fatalf("room %d: Prewarm computed %d pairs, want %d", room, got, n*(n-1)/2)
		}
		rotate(t)
		missesBefore := Stats().Misses
		for i := range ds {
			for j := range ds {
				if i != j {
					ProbGreater(ds[i], ds[j])
				}
			}
		}
		if misses := Stats().Misses - missesBefore; misses != 0 {
			t.Fatalf("room %d: %d misses after the rotation, want none", room, misses)
		}
	}
}

// TestConcurrentPrewarmLookupStatsReset runs every entry point at once; under
// -race it pins the locking, and every value must still be the uncached one
// and the cache must stay within two generations.
func TestConcurrentPrewarmLookupStatsReset(t *testing.T) {
	Reset()
	const goroutines, rounds = 4, 40
	// Every other round a goroutine works on a dataset of its own, enough
	// to rotate a generation before and after the Reset mid-way; the other
	// rounds share one, so fills and lookups race on the same pairs.
	shared := freshUniforms(t, 24)
	datasets := make([][][]dist.Distribution, goroutines)
	for g := range datasets {
		datasets[g] = make([][]dist.Distribution, rounds)
		for round := range datasets[g] {
			datasets[g][round] = shared
			if (g+round)%2 == 0 {
				datasets[g][round] = freshUniforms(t, 24)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 1)
	report := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round, ds := range datasets[g] {
				Prewarm(ds, 2)
				for i := range ds {
					for j := i + 1; j < len(ds); j++ {
						if got, want := ProbGreater(ds[i], ds[j]), dist.ProbGreater(ds[i], ds[j]); got != want {
							report("lookup differs from the uncached kernel")
						}
					}
				}
				if st := Stats(); st.Entries > 2*genSize {
					report("entries above two generations")
				}
				if g == 0 && round == rounds/2 {
					Reset()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
