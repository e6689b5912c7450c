package selection

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"crowdtopk/internal/numeric"
	"crowdtopk/internal/tpo"
)

// This file makes the flat engine a cache that survives across selection
// rounds. The expensive part of a ResidualEngine is the O(leaves·pairs)
// classification of its ConsistencyIndex, and every classification byte is
// a function of one leaf's path alone. Answers only remove leaves and move
// weights, so the leaf set the next round hands in is a subsequence of the
// one the held engine was built from. engineFor pairs the two in one forward
// walk, filters the per-leaf arrays through the pairing, adopts the new
// weights and recomputes the per-question aggregates: the classification is
// paid once per engine lifetime, and the engine catches up once per sweep
// however many answers landed in between.

// Package-wide live-engine counters, exported through LiveEngineStats for the
// serving layer's /v1/stats.
var (
	liveReuses        atomic.Int64
	liveRebuilds      atomic.Int64
	liveCompactions   atomic.Int64
	liveInvalidations atomic.Int64
)

// LiveCounters is a point-in-time snapshot of the process-wide live-engine
// activity: how often a selection round reused the held engine (reconciled
// with the round's leaf set) vs. built one from scratch, how many of those
// reuses dropped leaves (compactions), and how often a held engine was
// discarded (invalidations).
type LiveCounters struct {
	Reuses        int64 `json:"reuses"`
	Rebuilds      int64 `json:"rebuilds"`
	Compactions   int64 `json:"compactions"`
	Invalidations int64 `json:"invalidations"`
}

// LiveEngineStats returns the process-wide counters.
func LiveEngineStats() LiveCounters {
	return LiveCounters{
		Reuses:        liveReuses.Load(),
		Rebuilds:      liveRebuilds.Load(),
		Compactions:   liveCompactions.Load(),
		Invalidations: liveInvalidations.Load(),
	}
}

// LiveEngine holds a ResidualEngine alive across selection rounds. A session
// owns one LiveEngine for its lifetime and passes it to strategies via
// Context.Live; strategies obtain their engine through engineFor, which
// reconciles the held engine with the leaf set they were handed when that
// set is a subsequence of the held leaves, and rebuilds otherwise. The π
// values carry over with the held engine, so one LiveEngine serves the leaf
// sets of one score model, as a session's tree does.
//
// Concurrency: the engine's own sweeps parallelize internally, but rounds
// must not overlap — the session's lock already serializes them. The mutex
// protects the held-engine pointer against concurrent Invalidate calls, not
// concurrent use of the returned engine.
type LiveEngine struct {
	mu   sync.Mutex
	eng  *ResidualEngine
	slot []int32 // reconcile scratch: held slot -> slot in the new leaf set
}

// NewLiveEngine returns an empty live engine; the first selection round
// populates it.
func NewLiveEngine() *LiveEngine {
	return &LiveEngine{}
}

// Invalidate discards the held engine, releasing the arena's memory on
// terminal sessions. Safe on a nil receiver.
func (l *LiveEngine) Invalidate() {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.eng != nil {
		liveInvalidations.Add(1)
	}
	l.eng = nil
	l.mu.Unlock()
}

// Sync does nothing: answers only condition the tree, and the held engine
// catches up with the next leaf set a strategy hands it. It is kept so that
// code bringing the engine in line after every answer, such as the serving
// benchmark's primitive rung, still builds.
func (l *LiveEngine) Sync(context.Context, *tpo.Tree, bool) {}

// engineFor returns the residual engine strategies should evaluate ls
// through: the context's live engine, reconciled with ls, when one is
// attached; a fresh build otherwise.
func engineFor(ls *tpo.LeafSet, ctx *Context) *ResidualEngine {
	if ctx.Live == nil {
		return NewResidualEngine(ls, ctx)
	}
	return ctx.Live.engineFor(ls, ctx)
}

func (l *LiveEngine) engineFor(ls *tpo.LeafSet, ctx *Context) *ResidualEngine {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.eng != nil && l.reconcile(ls) {
		e := l.eng
		// Rebind to the caller's context: knobs (workers, pool, epsilons)
		// may differ per round. The dense π matrix carries over — it covers
		// a superset of the tuples in play.
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
	return e
}

// reconcile brings the held engine in line with ls and reports whether it
// could. Both leaf sets are subsequences of one tree's leaf enumeration with
// distinct paths, so a single forward walk pairs them unambiguously; ls may
// hold any subset of the held leaves, with any weights. A leaf set the walk
// cannot pair completely, such as an incr tree one level deeper, leaves the
// engine untouched and reports false. Caller holds l.mu.
func (l *LiveEngine) reconcile(ls *tpo.LeafSet) bool {
	e := l.eng
	a := e.arena
	m := ls.Len()
	if m == 0 {
		return false
	}
	l.slot = slices.Grow(l.slot[:0], a.n)[:a.n] // held slot -> slot in ls, -1 when dropped
	slot := l.slot
	j := 0
	for i := range slot {
		slot[i] = -1
		if j < m && a.paths[i].Equal(ls.Paths[j]) {
			slot[i] = int32(j)
			j++
		}
	}
	if j != m {
		return false
	}
	if m < a.n {
		l.eng = e.filter(ls, slot)
		liveCompactions.Add(1)
		return true
	}
	// Same leaves: only the weights may have moved (a noisy answer).
	if !slices.Equal(a.w, ls.W) {
		copy(a.w, ls.W)
		e.index.recomputeStats()
		e.rootMass = numeric.Sum(a.w)
	}
	return true
}

// filter returns the engine over ls, a strict subsequence of the held
// leaves: slot maps each held slot to its position in ls, -1 for dropped
// leaves. The arena is filtered as Arena.filtered describes, and the
// classification rows, per-leaf functions of the paths too, are compacted
// in place through the same slot map. The question universe, π and tuple
// set carry over and may cover more than ls spans; questions over tuples no
// surviving leaf holds classify one way or not at all, so they never enter
// the relevant list, and every consumer works off that list and the
// per-class aggregates, which recomputeStats makes exactly what a fresh
// build computes. The held engine is the only reader of these arrays, so
// it is spent: the returned engine takes over its arrays and its worker
// scratch.
func (e *ResidualEngine) filter(ls *tpo.LeafSet, slot []int32) *ResidualEngine {
	a, ci := e.arena, e.index
	n, m := a.n, ls.Len()
	na := a.filtered(ls, slot)
	// Row q moves from q·n to q·m, and slot[i] ≤ i, so every byte lands at
	// or before its source and no unread byte is overwritten.
	for q := range ci.all {
		src, dst := ci.class[q*n:(q+1)*n], ci.class[q*m:(q+1)*m]
		for i, s := range slot {
			if s >= 0 {
				dst[s] = src[i]
			}
		}
	}
	ci.class = ci.class[:len(ci.all)*m]
	ci.arena = na
	ci.recomputeStats()
	return &ResidualEngine{ctx: e.ctx, arena: na, index: ci, rootMass: numeric.Sum(na.w), scratch: e.scratch}
}

// recomputeStats rebuilds the per-question aggregates and the relevant list
// from the arena's current weights, leaving stats byte-identical to what
// NewConsistencyIndex would produce on the same leaves: same accumulation
// order (leaf-outer, question-inner) and the same guards. The classification
// rows and π are untouched — classification depends only on paths.
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
