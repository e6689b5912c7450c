// Package pcache is a process-wide, concurrency-safe cache of the pairwise
// order probabilities π_ij = Pr(s_i > s_j) computed by dist.ProbGreater.
//
// π_ij values are consumed everywhere: TPO leaf splitting, the expected
// residual sweeps of every selection strategy, and the Bayesian answer model
// for noisy crowds. A single experiment sweep asks for the same pairs
// thousands of times, and repeated trials over the same dataset re-ask them
// across tree rebuilds. Because distributions are immutable after
// construction, a probability keyed by the identity of the two distribution
// values can be computed once and shared by every tree, strategy and
// goroutine holding those values. Only holders of the same values share an
// entry: a served session parses its own distributions on every create and
// restore, so served sessions never hit each other's entries, and the cache
// serves each session's own sweeps.
//
// The cache keeps a working set, not a history. It holds two generations of
// at most genSize entries each: lookups read the current generation, then
// the previous one; new pairs go into the current one, and when it is full
// it becomes the previous one and the older generation is dropped whole. A
// pair therefore survives the first rotation after it is stored, memory
// stays flat however much traffic passes, and the entries of finished
// datasets age out instead of pinning their distributions.
//
// The cache stores both directions of a pair on first computation (π_ji is
// the complement 1−π_ij, the same identity tree-level callers have always
// used), so a flipped lookup is a hit. All operations are safe for
// concurrent use; duplicated computation under a race is benign because
// dist.ProbGreater is deterministic, and a store never overwrites a pair
// that a racing caller stored first.
package pcache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crowdtopk/internal/dist"
	"crowdtopk/internal/par"
)

// genSize bounds one generation, so the cache never holds more than
// 2·genSize entries. It is sized for a working set, not for reuse across
// datasets (which served traffic never gets): a generation holds the pairs
// of about 30 N=24 datasets or the full pair set of one N=128 dataset, the
// largest Prewarm fills. The bound is on entry count, not bytes: a key pins
// its two distributions, so an entry can keep a histogram's edge/weight
// slices reachable until its generation is dropped.
const genSize = 1 << 14

var (
	mu sync.RWMutex
	// cur takes new pairs; prev is the generation it replaced (nil until
	// the first rotation after a Reset). Both hold both orientations of
	// every pair.
	cur  = map[pairKey]float64{}
	prev map[pairKey]float64

	hits   atomic.Int64
	misses atomic.Int64
	resets atomic.Int64

	// Prewarm telemetry: process-cumulative (like resets, surviving Reset)
	// so served cold-starts stay diagnosable across workload switches.
	prewarmPairs atomic.Int64
	prewarmNanos atomic.Int64
)

// pairKey identifies an ordered distribution pair. Distribution
// implementations are pointer types, so interface equality is pointer
// identity and keys are cheaply comparable.
type pairKey struct {
	a, b dist.Distribution
}

// ProbGreater returns Pr(A > B) for independent scores A ~ a and B ~ b,
// memoizing the result (and its complement for the flipped pair) across the
// whole process. Values are exactly those of dist.ProbGreater for the (a, b)
// orientation actually computed first; the flipped orientation returns the
// complement, matching the symmetry convention used by tree-level callers.
func ProbGreater(a, b dist.Distribution) float64 {
	k := pairKey{a, b}
	mu.RLock()
	v, ok := lookup(k)
	mu.RUnlock()
	if ok {
		hits.Add(1)
		return v
	}
	misses.Add(1)
	p := dist.ProbGreater(a, b)
	mu.Lock()
	makeRoom(2)
	store(k, p)
	mu.Unlock()
	return p
}

// lookup reads the current generation, then the previous one. The caller
// holds mu.
func lookup(k pairKey) (float64, bool) {
	if v, ok := cur[k]; ok {
		return v, true
	}
	v, ok := prev[k]
	return v, ok
}

// makeRoom retires the current generation if `need` more entries would take
// it past genSize, so a batch of stores lands in one generation. The new
// generation is allocated at full size, which spares the rehashing of
// growing it step by step; only the first one after a Reset grows on
// demand, so a process that never fills a generation never allocates a
// full one. The caller holds mu for writing.
func makeRoom(need int) {
	if len(cur)+need > genSize {
		prev, cur = cur, make(map[pairKey]float64, genSize)
	}
}

// store records p for k and its complement for the flipped pair, unless a
// racing caller stored the pair first (both orientations always go in
// together, so one lookup answers for both). The caller holds mu for writing.
func store(k pairKey, p float64) {
	if _, ok := lookup(k); ok {
		return
	}
	cur[k] = p
	if k.a != k.b {
		cur[pairKey{k.b, k.a}] = 1 - p
	}
}

// Reset empties the cache and zeroes the hit/miss statistics. Tests and
// long-lived processes switching workloads call it; the cache never calls
// it itself, so the process-cumulative Resets counter counts exactly these
// explicit calls.
func Reset() {
	mu.Lock()
	cur, prev = map[pairKey]float64{}, nil
	hits.Store(0)
	misses.Store(0)
	resets.Add(1)
	mu.Unlock()
}

// Prewarm bulk-fills the cache with π for every pair of dists (both
// orientations, as ProbGreater stores them), fanning the integrations across
// up to `workers` goroutines (< 1 selects GOMAXPROCS, clamped to the pair
// count). The serving layer calls it at session creation so the first
// residual sweep of a cold dataset finds every pair hot: the fill lands in
// one generation, so it survives the next rotation. It returns the number of
// pairs actually computed — already-warm pairs cost one lookup. The hit and
// miss counters count each pair as one lookup; fill time and pair counts
// accumulate into the Snapshot telemetry.
func Prewarm(dists []dist.Distribution, workers int) (computed int) {
	n := len(dists)
	pairs := n * (n - 1) / 2
	// A fill larger than one generation cannot land in one without breaking
	// the bound. Skip it (and leave the telemetry untouched); the sweeps
	// populate the pairs they actually use.
	if pairs == 0 || 2*pairs > genSize { // both orientations stored
		return 0
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	todo := make([]pairKey, 0, pairs)
	mu.RLock()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := pairKey{dists[i], dists[j]}
			if _, ok := lookup(k); !ok {
				todo = append(todo, k)
			}
		}
	}
	mu.RUnlock()
	if len(todo) > 0 {
		vals := make([]float64, len(todo))
		par.For(len(todo), workers, func(_, p int) error {
			vals[p] = dist.ProbGreater(todo[p].a, todo[p].b)
			return nil
		})
		mu.Lock()
		makeRoom(2 * len(todo))
		for p, k := range todo {
			store(k, vals[p])
		}
		mu.Unlock()
	}
	// Count the fill as the per-pair lookups it replaces: a miss for each
	// pair computed, a hit for each found warm.
	misses.Add(int64(len(todo)))
	hits.Add(int64(pairs - len(todo)))
	prewarmPairs.Add(int64(pairs))
	prewarmNanos.Add(time.Since(start).Nanoseconds())
	return len(todo)
}

// Snapshot is a point-in-time view of the cache counters. Hits and Misses
// count since the last Reset, Entries is the current size of both
// generations, and Resets and the Prewarm counters are process-cumulative.
// HitRate is the cumulative Hits/(Hits+Misses) since the last Reset (0
// before any lookup) — a lifetime average that stops moving on a long-lived
// process no matter what the cache is doing now; WindowStats reports the
// rate over a recent interval instead.
type Snapshot struct {
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	Entries      int64   `json:"entries"`
	Resets       int64   `json:"resets"`
	HitRate      float64 `json:"hit_rate"`
	PrewarmPairs int64   `json:"prewarm_pairs"`
	PrewarmNanos int64   `json:"prewarm_ns"`
}

// Stats reports the cache counters — exposed so tests can assert that
// repeated sweeps stop re-integrating pairs, and surfaced by the serving
// layer's stats endpoint so long-running deployments can watch churn and
// diagnose cold-start fill cost.
func Stats() Snapshot {
	mu.RLock()
	entries := len(cur) + len(prev)
	mu.RUnlock()
	s := Snapshot{
		Hits:         hits.Load(),
		Misses:       misses.Load(),
		Entries:      int64(entries),
		Resets:       resets.Load(),
		PrewarmPairs: prewarmPairs.Load(),
		PrewarmNanos: prewarmNanos.Load(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}

// Window state: the counter values the previous WindowStats call observed.
var (
	windowMu   sync.Mutex
	lastHits   int64
	lastMisses int64
	lastResets int64
)

// WindowSnapshot reports cache traffic over one observation window: the
// interval between two consecutive WindowStats calls. HitRate here is the
// rate for that interval only, 0 when the window saw no lookups.
type WindowSnapshot struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// WindowStats returns the hit/miss deltas since the previous WindowStats
// call and starts the next window. Unlike the cumulative Snapshot.HitRate —
// which a long warm stretch pins near 1 (or a cold rebuild near 0) forever —
// the windowed rate tracks what the cache is doing now, so a deployment
// watching /v1/stats sees churn when it happens. The window is process-global
// (one cursor, like the cache itself): concurrent observers each get the
// interval since whoever called last. If Reset ran inside the window the
// cumulative counters restarted, so the window restarts from zero too rather
// than reporting negative deltas.
func WindowStats() WindowSnapshot {
	windowMu.Lock()
	defer windowMu.Unlock()
	h, m, r := hits.Load(), misses.Load(), resets.Load()
	var w WindowSnapshot
	if r == lastResets && h >= lastHits && m >= lastMisses {
		w.Hits, w.Misses = h-lastHits, m-lastMisses
	} else {
		// A Reset landed inside the window; everything counted since it is
		// the best available approximation of the window's traffic.
		w.Hits, w.Misses = h, m
	}
	lastHits, lastMisses, lastResets = h, m, r
	if total := w.Hits + w.Misses; total > 0 {
		w.HitRate = float64(w.Hits) / float64(total)
	}
	return w
}
