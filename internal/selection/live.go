package selection

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crowdtopk/internal/numeric"
	"crowdtopk/internal/obs"
	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// This file makes the flat engine a live structure that survives across
// selection rounds. Applying an accepted answer becomes a dynamic update —
// pruned leaves are tombstoned (weight zeroed in place), survivors are
// reweighted in place, and the per-question per-class aggregates of the
// ConsistencyIndex are patched — instead of re-snapshotting the leaf set and
// rebuilding the O(leaves·pairs) classification from scratch on the next
// round. Steady-state cost per accepted answer is O(removed·pairs + pairs),
// proportional to what the answer actually changed.
//
// Tombstone representation: a dead leaf keeps its slot (paths, class bytes,
// dense ids, prefix groups and distance rows stay valid) and carries w == 0.
// Every consumer of the arena already skips or is immune to zero weights —
// Kahan summation over interleaved zeros is an exact no-op, splitCell drops
// them, the entropy aggregates exclude them, the MPO dot and argmax cannot
// select them — so a tombstoned arena is observationally identical to the
// compacted snapshot a fresh engine would build. Once tombstones exceed a
// quarter of the slots the engine compacts (lazily, inside the same update)
// by filtering the per-leaf arrays through the alive-slot mapping; see
// compactLocked.

const (
	// liveCompactFrac: compact when dead slots exceed 1/liveCompactFrac of
	// the arena. Keeps the dead-slot scan overhead bounded at a constant
	// factor while amortizing rebuilds over many updates.
	liveCompactFrac = 4
	// liveResyncEvery forces a full aggregate recomputation after this many
	// consecutive delta patches, bounding the accumulated floating-point
	// drift of the scaled entropy numerators far below tieEpsilon.
	liveResyncEvery = 32
)

// mApplyPhase attributes answer-application wall time to its three phases:
// the in-place delta patch, the periodic full aggregate resync, and the lazy
// tombstone compaction. Together with the selection.patch/resync/compact
// spans it answers "where did the apply go" per request and in aggregate.
var mApplyPhase = obs.Default.HistogramVec("crowdtopk_selection_apply_seconds",
	"Live-engine answer application time by phase (patch, resync, compact), in seconds.",
	obs.DefBuckets, "phase")

// Package-wide live-engine counters, exported through LiveEngineStats for the
// serving layer's /v1/stats. Atomics, like internal/pcache's counters.
var (
	liveReuses        atomic.Int64
	liveRebuilds      atomic.Int64
	livePatches       atomic.Int64
	liveResyncs       atomic.Int64
	liveCompactions   atomic.Int64
	liveInvalidations atomic.Int64
)

// LiveCounters is a point-in-time snapshot of the process-wide live-engine
// activity: how often a selection round reused the held engine vs. built one
// from scratch, how many answers were applied as in-place patches, and how
// often the maintenance paths (aggregate resync, tombstone compaction,
// invalidation) ran.
type LiveCounters struct {
	Reuses        int64 `json:"reuses"`
	Rebuilds      int64 `json:"rebuilds"`
	Patches       int64 `json:"patches"`
	Resyncs       int64 `json:"resyncs"`
	Compactions   int64 `json:"compactions"`
	Invalidations int64 `json:"invalidations"`
}

// LiveEngineStats returns the process-wide counters.
func LiveEngineStats() LiveCounters {
	return LiveCounters{
		Reuses:        liveReuses.Load(),
		Rebuilds:      liveRebuilds.Load(),
		Patches:       livePatches.Load(),
		Resyncs:       liveResyncs.Load(),
		Compactions:   liveCompactions.Load(),
		Invalidations: liveInvalidations.Load(),
	}
}

// LiveEngine holds a ResidualEngine alive across selection rounds and keeps
// it in sync with the tree through answer application. A session owns one
// LiveEngine for its lifetime and passes it to strategies via Context.Live;
// strategies then obtain their engine through engineFor, which reuses the
// held engine when its (tombstoned) arena still matches the leaf set and
// rebuilds otherwise.
//
// Concurrency: the engine's own sweeps parallelize internally, but rounds
// and answer applications must not overlap — the session's lock already
// serializes them. The LiveEngine mutex protects the held-engine pointer and
// bookkeeping against concurrent Invalidate/stats calls, not concurrent use
// of the returned engine.
type LiveEngine struct {
	mu          sync.Mutex
	eng         *ResidualEngine
	dead        int // tombstoned slots in the held arena
	sinceResync int // delta patches since the last full aggregate recompute

	snap *tpo.LeafSet // reusable snapshot buffer for Sync

	// applyUpdate scratch, reused across answers.
	deadIdx []int32
	deadW   []float64
	survIdx []int32
	survOld []float64
	survNew []float64
	dirty   []dirtyClass

	// Weight-order cache for the tie guard. rank holds the alive arena slots
	// sorted non-strictly by weight; a trusted renormalization divides every
	// survivor by one common total — a monotone map — so the order survives
	// across answers and each update only filters out the pruned slots
	// instead of re-sorting. Anything else that touches weights (noisy
	// reweight, compaction, attach) invalidates it.
	rank      []int32
	rankValid bool
	posOf     []int32   // arena slot -> survivor position this answer, -1 otherwise
	merged    []float64 // new weights where a strict order became a tie
}

// dirtyClass marks a (question, class) pair whose argmax leaf was removed and
// must be rescanned.
type dirtyClass struct {
	q  int32
	cl byte
}

// NewLiveEngine returns an empty live engine; the first selection round
// populates it.
func NewLiveEngine() *LiveEngine {
	return &LiveEngine{}
}

// Invalidate discards the held engine (and the snapshot buffer). Call it
// whenever the tree changes shape in a way updates do not model — depth
// extension — or to release the arena's memory on terminal sessions. Safe on
// a nil receiver.
func (l *LiveEngine) Invalidate() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.drop()
	l.snap = nil
	l.mu.Unlock()
}

// drop discards the held engine and resets bookkeeping. Caller holds l.mu.
func (l *LiveEngine) drop() {
	if l.eng != nil {
		liveInvalidations.Add(1)
	}
	l.eng = nil
	l.dead = 0
	l.sinceResync = 0
	l.rankValid = false
}

// Sync brings the held engine in line with the tree after an accepted
// answer. pruneOnly reports that the answer was applied with full trust
// (reliability 1): survivors were only renormalized, never individually
// reweighted, which enables the cheap aggregate delta patch; noisy updates
// change every weight and take the full aggregate recompute. When no engine
// is held, Sync is a no-op — the next round builds (and attaches) one.
// Safe on a nil receiver.
func (l *LiveEngine) Sync(ctx context.Context, t *tpo.Tree, pruneOnly bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.eng == nil {
		return
	}
	l.snap = t.LeafSetInto(l.snap)
	l.applyLocked(ctx, l.snap, pruneOnly)
}

// Apply is Sync for callers that already hold the post-answer leaf set
// (tests and benchmarks). The engine may retain fresh's backing arrays if a
// compaction triggers; callers must treat fresh as consumed.
func (l *LiveEngine) Apply(fresh *tpo.LeafSet, pruneOnly bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.eng == nil {
		return
	}
	l.applyLocked(context.Background(), fresh, pruneOnly)
}

// applyLocked diffs the held arena against the post-answer leaf set and
// patches the engine in place. On any structural surprise it drops the
// engine — correctness never depends on the patch succeeding, only speed
// does. Caller holds l.mu.
func (l *LiveEngine) applyLocked(ctx context.Context, fresh *tpo.LeafSet, pruneOnly bool) {
	patchStart := time.Now()
	e := l.eng
	a := e.arena
	if fresh.K != a.k || fresh.Len() == 0 || fresh.Len() > a.n {
		l.drop()
		return
	}
	// Diff pass: alive arena leaves and fresh leaves are both subsequences
	// of the original leaf enumeration with distinct paths, so a single
	// forward walk pairs them unambiguously. An alive leaf missing from
	// fresh was pruned by this answer.
	l.deadIdx, l.deadW = l.deadIdx[:0], l.deadW[:0]
	l.survIdx, l.survOld, l.survNew = l.survIdx[:0], l.survOld[:0], l.survNew[:0]
	j, m := 0, fresh.Len()
	for i := 0; i < a.n; i++ {
		w := a.w[i]
		if w == 0 {
			continue
		}
		if j < m && a.paths[i].Equal(fresh.Paths[j]) {
			if fresh.W[j] <= 0 {
				// A zero-weight tree leaf would leave the arena and the
				// tree permanently out of step; trees drop zero-mass
				// leaves on renormalization, so treat this as structural.
				l.drop()
				return
			}
			l.survIdx = append(l.survIdx, int32(i))
			l.survOld = append(l.survOld, w)
			l.survNew = append(l.survNew, fresh.W[j])
			j++
		} else {
			l.deadIdx = append(l.deadIdx, int32(i))
			l.deadW = append(l.deadW, w)
		}
	}
	if j != m {
		l.drop() // fresh holds a leaf the arena does not: not an update we model
		return
	}

	// Commit the new weights: tombstone the removed leaves, store the
	// survivors' post-renormalization weights verbatim — the arena then
	// holds exactly the floats a fresh snapshot would.
	for _, i := range l.deadIdx {
		a.w[i] = 0
	}
	for p, i := range l.survIdx {
		a.w[i] = l.survNew[p]
	}
	e.rootMass = numeric.Sum(a.w)
	livePatches.Add(1)
	l.dead += len(l.deadIdx)

	// Refresh the aggregates. The delta patch is only sound for trusted
	// prunes (survivor weights all scaled by one common factor) whose
	// renormalization preserved the survivors' weight order — otherwise the
	// cached argmaxes may silently point at the wrong leaf. Everything else
	// takes the full recompute, as does every liveResyncEvery-th patch to
	// cap numeric drift.
	if !pruneOnly {
		// Individually reweighted survivors: the maintained weight order is
		// no longer meaningful.
		l.rankValid = false
	}
	delta := pruneOnly && l.sinceResync < liveResyncEvery-1 && l.orderPreserved()
	if delta {
		delta = e.patchStats(l.deadIdx, l.deadW, l.survDelta(), l.merged, &l.dirty)
	}
	if delta {
		l.sinceResync++
		mApplyPhase.With("patch").Observe(time.Since(patchStart).Seconds())
		_, psp := obs.StartSpan(ctx, "selection.patch")
		psp.SetAttr("dead", len(l.deadIdx))
		psp.End()
	} else {
		// Attribute the diff+commit walk to the resync it culminated in: the
		// full recompute dominates, and splitting sub-millisecond prep out of
		// it would double the span count for no diagnostic value.
		_, rsp := obs.StartSpan(ctx, "selection.resync")
		rsp.SetAttr("dead", len(l.deadIdx))
		e.index.recomputeStats()
		rsp.End()
		liveResyncs.Add(1)
		mApplyPhase.With("resync").Observe(time.Since(patchStart).Seconds())
		l.sinceResync = 0
	}

	// Lazy compaction: once tombstones dominate, squeeze the dead slots out.
	// Everything the engine holds is either per-leaf (filtered through the
	// slot renumbering) or per-question and invariant under it (the question
	// universe, π, classification bytes, distance rows — all functions of
	// the immutable paths), so compaction never re-derives anything; the
	// expensive O(leaves·pairs) classification is paid exactly once per
	// engine lifetime. On a structural surprise, fall back to a fresh build.
	if l.dead*liveCompactFrac > a.n {
		compactStart := time.Now()
		_, csp := obs.StartSpan(ctx, "selection.compact")
		csp.SetAttr("dead", l.dead)
		csp.SetAttr("slots", a.n)
		defer func() {
			csp.End()
			mApplyPhase.With("compact").Observe(time.Since(compactStart).Seconds())
		}()
		if !l.compactLocked(fresh) {
			l.eng = NewResidualEngine(fresh, e.ctx)
			l.dead, l.sinceResync = 0, 0
			l.rankValid = false
		}
		// A rebuilt engine aliases the snapshot's backing arrays (NewArena
		// keeps tree snapshots zero-copy), so detach the reusable buffer —
		// the next Sync allocates a new one.
		if fresh == l.snap {
			l.snap = nil
		}
		liveCompactions.Add(1)
	}
}

// compactLocked rewrites the held engine without its tombstoned slots: every
// per-leaf array (weights, flat tuples, dense ids, paths, classification
// columns, cached distance rows, the maintained weight order) is filtered
// through the alive-slot mapping, and the per-question state — universe, π,
// aggregates — carries over untouched, with only the cached argmax slots
// renumbered. The compacted engine differs from a from-scratch build in one
// invisible way: its question universe (and tuple set) may be a superset of
// what the shrunken leaf set spans; every consumer works off the relevant
// list and per-class aggregates, which are exact either way. sinceResync is
// deliberately preserved — unlike a fresh build, filtering does not resync
// the drift-bounded aggregate floats, so the periodic recompute schedule
// keeps its place. Caller holds l.mu. Returns false (engine untouched) when
// the alive slots do not pair with fresh.
func (l *LiveEngine) compactLocked(fresh *tpo.LeafSet) bool {
	e := l.eng
	a := e.arena
	ci := e.index
	if cap(l.posOf) < a.n {
		l.posOf = make([]int32, a.n)
	}
	newSlot, m := l.posOf[:a.n], 0
	for i := 0; i < a.n; i++ {
		if a.w[i] == 0 {
			newSlot[i] = -1
			continue
		}
		newSlot[i] = int32(m)
		m++
	}
	if m != fresh.Len() || m == 0 {
		return false
	}
	k := a.k
	na := &Arena{
		k:      k,
		n:      m,
		flat:   make([]int, m*k),
		w:      make([]float64, m),
		paths:  make([]rank.Ordering, m),
		tuples: a.tuples,
		tidx:   a.tidx,
		dense:  make([]int32, m*k),
	}
	for i, s := range newSlot {
		if s < 0 {
			continue
		}
		copy(na.flat[int(s)*k:(int(s)+1)*k], a.flat[i*k:(i+1)*k])
		copy(na.dense[int(s)*k:(int(s)+1)*k], a.dense[i*k:(i+1)*k])
		na.w[s] = a.w[i]
	}
	for i := 0; i < m; i++ {
		na.paths[i] = rank.Ordering(na.flat[i*k : (i+1)*k : (i+1)*k])
	}
	na.migrateRowsFrom(a, newSlot)

	nq := len(ci.all)
	class := make([]byte, nq*m)
	for q := 0; q < nq; q++ {
		src := ci.class[q*a.n : (q+1)*a.n]
		dst := class[q*m : (q+1)*m]
		for i, s := range newSlot {
			if s >= 0 {
				dst[s] = src[i]
			}
		}
	}
	ci.arena = na
	ci.class = class
	for q := range ci.stats {
		st := &ci.stats[q]
		for cl := 0; cl < 3; cl++ {
			if at := st.maxAt[cl]; at >= 0 {
				st.maxAt[cl] = newSlot[at]
			}
		}
	}
	if l.rankValid {
		out := l.rank[:0]
		for _, idx := range l.rank {
			if s := newSlot[idx]; s >= 0 {
				out = append(out, s)
			}
		}
		l.rank = out
	}
	l.eng = &ResidualEngine{ctx: e.ctx, arena: na, index: ci, rootMass: numeric.Sum(na.w)}
	l.dead = 0
	return true
}

// survDelta returns the common renormalization scale of a trusted prune:
// (new survivor mass)/(old survivor mass). Exact arithmetic is not required
// — the scaled aggregates are consumed through tieEpsilon-insensitive
// comparisons and periodically resynced.
func (l *LiveEngine) survDelta() float64 {
	var on, nn numeric.KahanSum
	for p := range l.survIdx {
		on.Add(l.survOld[p])
		nn.Add(l.survNew[p])
	}
	o := on.Sum()
	if o == 0 {
		return 1
	}
	return nn.Sum() / o
}

// orderPreserved reports whether the survivors' old and new weights induce
// the same order. Renormalization divides every survivor by one common
// total, which cannot invert a strict order, but rounding can merge two
// near-equal weights (leaf masses are products of the same π factors in
// different orders, so ulp-distance pairs are common) into an exact tie —
// and the cached argmaxes break ties by position, so a merge at a class
// maximum would make them diverge from what a fresh build computes. Merges
// are therefore not a failure: the merged values are collected into
// l.merged and patchStats rescans exactly the classes whose maximum sits at
// one. Only a genuine order change (tie split, inversion) — impossible
// under a common-scale renormalization and hence evidence the update is not
// one — reports false, sending the caller to the full recompute.
//
// The weight order itself is read from l.rank, (re)sorted only when a
// non-renormalizing event invalidated it; in steady state the check is a
// single filtering walk.
func (l *LiveEngine) orderPreserved() bool {
	l.merged = l.merged[:0]
	n := len(l.survIdx)
	a := l.eng.arena
	// posOf maps arena slots to this answer's survivor positions.
	if cap(l.posOf) < a.n {
		l.posOf = make([]int32, a.n)
	}
	pos := l.posOf[:a.n]
	for i := range pos {
		pos[i] = -1
	}
	for p, idx := range l.survIdx {
		pos[idx] = int32(p)
	}
	if !l.rankValid {
		if cap(l.rank) < n {
			l.rank = make([]int32, n)
		}
		l.rank = append(l.rank[:0], l.survIdx...)
		sort.Slice(l.rank, func(x, y int) bool {
			return l.survOld[pos[l.rank[x]]] < l.survOld[pos[l.rank[y]]]
		})
		l.rankValid = true
	}
	// Walk the maintained order, dropping slots pruned by this answer, and
	// compare each adjacent surviving pair. A merge between non-adjacent
	// survivors implies a merge on some adjacent pair at the same value, so
	// adjacent checks see every merged value.
	out, prev, ok := l.rank[:0], int32(-1), true
	for _, idx := range l.rank {
		p := pos[idx]
		if p < 0 {
			continue
		}
		if prev >= 0 {
			po, co := l.survOld[prev], l.survOld[p]
			pn, cn := l.survNew[prev], l.survNew[p]
			switch {
			case po > co || (po == co && pn != cn) || (po < co && pn > cn):
				// Inversion or tie split: not a common-scale renormalization
				// (or the maintained order went stale) — fail safe.
				ok = false
			case po < co && pn == cn:
				if k := len(l.merged); k == 0 || l.merged[k-1] != cn {
					l.merged = append(l.merged, cn)
				}
			}
		}
		out = append(out, idx)
		prev = p
	}
	l.rank = out
	if !ok {
		l.rankValid = false
		return false
	}
	return true
}

// patchStats applies a trusted prune to the per-question class aggregates as
// a delta: subtract each removed leaf's contribution, rescale the survivors'
// sums by the common renormalization factor S, and resync the cached maxima
// against the committed weights. Classes whose argmax leaf was removed — or
// whose maximum sits at a weight where renormalization merged a strict order
// into a tie (merged), so position tie-breaking may now pick an earlier leaf
// — are rescanned. Returns false (aggregates half-updated are never
// observed — the caller then recomputes from scratch) when the dirty set is
// large enough that rescans would approach the recompute cost anyway.
func (e *ResidualEngine) patchStats(deadIdx []int32, deadW []float64, scale float64, merged []float64, dirtyBuf *[]dirtyClass) bool {
	ci := e.index
	a := e.arena
	n, nq := a.n, len(ci.all)
	dirty := (*dirtyBuf)[:0]
	defer func() { *dirtyBuf = dirty }()
	for p, idx := range deadIdx {
		w := deadW[p]
		var wl float64
		if w > 0 {
			wl = w * math.Log2(w)
		}
		for q := 0; q < nq; q++ {
			cl := ci.class[q*n+int(idx)]
			st := &ci.stats[q]
			st.cnt[cl]--
			if st.cnt[cl] == 0 {
				// Exact emptiness: subtraction would leave rounding
				// residue and a phantom relevant class.
				st.w[cl], st.wlog[cl] = 0, 0
			} else {
				st.w[cl] -= w
				st.wlog[cl] -= wl
			}
			if st.maxAt[cl] == idx {
				dirty = append(dirty, dirtyClass{int32(q), cl})
			}
		}
	}
	lgS := math.Log2(scale)
	for q := 0; q < nq; q++ {
		st := &ci.stats[q]
		for cl := 0; cl < 3; cl++ {
			if st.cnt[cl] == 0 {
				continue
			}
			// Survivor weights went w -> S·w, so Σw·log2 w becomes
			// S·Σw·log2 w + S·log2(S)·Σw (over the pre-scale sums).
			st.wlog[cl] = scale*st.wlog[cl] + scale*lgS*st.w[cl]
			st.w[cl] *= scale
		}
	}
	// The committed arena weights are the exact post-renormalization
	// floats, so resync every surviving argmax's cached value from them
	// (the scaled copy above is only drift-bounded, not exact).
	for q := range ci.stats {
		st := &ci.stats[q]
		for cl := 0; cl < 3; cl++ {
			at := st.maxAt[cl]
			if at < 0 {
				continue
			}
			st.maxW[cl] = a.w[at]
			// Merged values are few (usually zero); a linear probe beats any
			// set structure at this size.
			for _, v := range merged {
				if st.maxW[cl] == v {
					dirty = append(dirty, dirtyClass{int32(q), byte(cl)})
					break
				}
			}
		}
	}
	if len(dirty) > nq {
		return false
	}
	for _, d := range dirty {
		st := &ci.stats[d.q]
		row := ci.class[int(d.q)*n:][:n]
		at, best := int32(-1), 0.0
		for i := 0; i < n; i++ {
			if row[i] != d.cl {
				continue
			}
			if w := a.w[i]; w > best { // tombstones (w == 0) can never win
				at, best = int32(i), w
			}
		}
		st.maxAt[d.cl], st.maxW[d.cl] = at, best
	}
	// Q_K may only shrink under pruning; the class counts are exact, so
	// rebuild the relevant list from them (cnt > 0 ⟺ w > 0 here: trusted
	// prunes never zero a survivor's weight).
	ci.relevant = ci.relevant[:0]
	for q := 0; q < nq; q++ {
		if ci.stats[q].cnt[classConsistent] > 0 && ci.stats[q].cnt[classInconsistent] > 0 {
			ci.relevant = append(ci.relevant, int32(q))
		}
	}
	return true
}

// recomputeStats rebuilds the per-question aggregates and the relevant list
// from the arena's current weights, leaving stats byte-identical to what
// NewConsistencyIndex would produce on the equivalent compacted snapshot:
// same accumulation order (leaf-outer, question-inner), same guards, and
// tombstoned leaves contribute exactly nothing. The classification rows and
// π are untouched — classification depends only on paths, which updates
// never change.
func (ci *ConsistencyIndex) recomputeStats() {
	a := ci.arena
	nq := len(ci.all)
	for q := range ci.stats {
		ci.stats[q] = classStats{maxAt: [3]int32{-1, -1, -1}}
	}
	for leaf := 0; leaf < a.n; leaf++ {
		w := a.w[leaf]
		if w == 0 {
			continue
		}
		var wl float64
		if w > 0 {
			wl = w * math.Log2(w)
		}
		for q := 0; q < nq; q++ {
			cl := ci.class[q*a.n+leaf]
			st := &ci.stats[q]
			st.cnt[cl]++
			st.w[cl] += w
			st.wlog[cl] += wl
			if w > st.maxW[cl] {
				st.maxW[cl] = w
				st.maxAt[cl] = int32(leaf)
			}
		}
	}
	ci.relevant = ci.relevant[:0]
	for q := 0; q < nq; q++ {
		if ci.stats[q].w[classConsistent] > 0 && ci.stats[q].w[classInconsistent] > 0 {
			ci.relevant = append(ci.relevant, int32(q))
		}
	}
}

// tombstoneSafe reports whether a measure's evaluation is invariant under
// zero-weight leaves in its view. The entropy family and MPO skip or are
// arithmetically immune to them; ORA is excluded because its aggregation
// input enumerates every view leaf — tombstone paths would enter the
// Kemeny/footrule candidate construction and could change the aggregate.
func tombstoneSafe(m uncertainty.Measure) bool {
	switch m.(type) {
	case uncertainty.Entropy, uncertainty.WeightedEntropy, uncertainty.MPO:
		return true
	}
	return false
}

// matches reports whether the engine's (tombstoned) arena represents exactly
// this leaf set: same depth, and the alive arena leaves pair 1:1, in order,
// with bitwise-equal weights and equal paths. Sessions snapshot the same
// tree the updates tracked, so steady state is a cheap O(alive) confirm.
func (e *ResidualEngine) matches(ls *tpo.LeafSet) bool {
	a := e.arena
	if ls.K != a.k {
		return false
	}
	j, m := 0, ls.Len()
	for i := 0; i < a.n; i++ {
		w := a.w[i]
		if w == 0 {
			continue
		}
		if j >= m || ls.W[j] != w || !a.paths[i].Equal(ls.Paths[j]) {
			return false
		}
		j++
	}
	return j == m
}

// engineFor returns the residual engine strategies should evaluate ls
// through: the context's live engine when one is attached and current, a
// fresh build otherwise. The fresh build is attached to the live engine so
// subsequent rounds (after in-place updates) can reuse it.
func engineFor(ls *tpo.LeafSet, ctx *Context) *ResidualEngine {
	if ctx.Live == nil {
		return NewResidualEngine(ls, ctx)
	}
	return ctx.Live.engineFor(ls, ctx)
}

func (l *LiveEngine) engineFor(ls *tpo.LeafSet, ctx *Context) *ResidualEngine {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ctx.Measure == nil || !tombstoneSafe(ctx.Measure) {
		l.drop()
		return NewResidualEngine(ls, ctx)
	}
	if e := l.eng; e != nil && e.matches(ls) {
		// Rebind to the caller's context/leaf set: knobs (workers, pool,
		// epsilons) may differ per round. The dense π matrix carries over —
		// it covers a superset of the tuples in play.
		if ctx.pim == nil {
			ctx.pim = e.ctx.pim
		}
		e.ctx = ctx
		liveReuses.Add(1)
		return e
	}
	e := NewResidualEngine(ls, ctx)
	liveRebuilds.Add(1)
	if l.eng != nil {
		liveInvalidations.Add(1)
	}
	l.eng = e
	l.dead, l.sinceResync = 0, 0
	l.rankValid = false
	return e
}
