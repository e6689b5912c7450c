package selection

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"crowdtopk/internal/numeric"
	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// This file is the flat, index-based residual engine — the package's only
// selection path. The expected-residual sweep R_Q(T_K) drives every
// selection strategy; splitting whole leaf sets would re-materialize them —
// cloning paths, reallocating weight vectors, and normalizing a copy per
// measure evaluation — for every candidate question × partition cell.
// Instead the leaf set is snapshotted once into an Arena (paths flattened
// into one backing array, weights in one vector), every candidate
// question's leaf classification is precomputed into a ConsistencyIndex,
// and partition cells are index/weight views over the shared arena, so
// splitting is a branch-light linear pass with zero path copies.

// Arena is a cache-friendly snapshot of a leaf set. Partition cells
// reference leaves by index into it. Paths, dense ids, prefix groups and
// distance rows are immutable for the arena's lifetime; the weight vector is
// not — when a later leaf set holds the same leaves, the live engine
// (live.go) overwrites the weights in place. When it holds fewer, the live
// engine filters this arena into a new one over them (see filtered), which
// compacts this one's arrays in place and ends its lifetime.
type Arena struct {
	k, n  int
	flat  []int           // n·k tuple ids; leaf i is flat[i*k : (i+1)*k]
	w     []float64       // leaf weights as snapshotted (normalized for tree roots)
	paths []rank.Ordering // zero-copy slice headers into flat

	tuples []int         // sorted distinct tuple ids
	tidx   map[int]int32 // tuple id -> index into tuples
	dense  []int32       // n·k: flat with tuple ids replaced by dense indices

	// groups[(l-1)*n+i] is leaf i's dense prefix-group id at level l: two
	// leaves share it iff their paths agree on the first l entries. groupN
	// counts distinct groups per level. U_Hw aggregates with these instead
	// of hashing path prefixes. Built lazily (guarded by groupsOnce) since
	// only prefix-marginal measures consult them.
	groupsOnce sync.Once
	groups     []int32
	groupN     []int32

	// Per-reference normalized-distance rows for U_MPO (see DistRow),
	// shared by every cell and worker of a sweep.
	rowMu      sync.Mutex
	rows       map[int32][]float64
	rowPenalty float64
	rowSpare   [][]float64 // rows a filter released, reused by DistRow (under rowMu)
	rowPosR    []int32     // scratch: ref positions per tuple (under rowMu)
	rowSteps   []distStep  // scratch: fillDistRow state per depth (under rowMu)
	rowSeen    []uint64    // scratch: ref positions seen per depth (under rowMu)
}

// NewArena snapshots ls. The flat layout needs the rectangular shape every
// tree leaf set has — all paths of length ls.K. Checkpointed leaf sets are
// checked for it where they enter the process (tpo.FromLeafSet), so a
// ragged set here is a programming error and panics.
func NewArena(ls *tpo.LeafSet) *Arena {
	n, k := ls.Len(), ls.K
	for i, p := range ls.Paths {
		if len(p) != k {
			panic(fmt.Sprintf("selection: leaf %d has %d entries, want K=%d", i, len(p), k))
		}
	}
	a := &Arena{k: k, n: n}
	a.adoptLeaves(ls)
	a.tuples = tupleSet(a.flat, ls)
	a.tidx = make(map[int]int32, len(a.tuples))
	for i, id := range a.tuples {
		a.tidx[id] = int32(i)
	}
	a.dense = make([]int32, n*k)
	for i, id := range a.flat {
		a.dense[i] = a.tidx[id]
	}
	return a
}

// adoptLeaves points the arena's paths at ls's leaves, in ls's flat backing
// when it has one (tree snapshots are already contiguous), and copies its
// weights, into the arena's own weight and path-header arrays when they are
// large enough. ls must be rectangular with a.k entries per path.
func (a *Arena) adoptLeaves(ls *tpo.LeafSet) {
	n, k := ls.Len(), a.k
	if flat, ok := ls.Flat(); ok {
		a.flat = flat
	} else {
		a.flat = make([]int, n*k)
		for i, p := range ls.Paths {
			copy(a.flat[i*k:], p)
		}
	}
	a.w = append(a.w[:0], ls.W...)
	a.paths = slices.Grow(a.paths[:0], n)[:n]
	for i := range a.paths {
		a.paths[i] = rank.Ordering(a.flat[i*k : (i+1)*k : (i+1)*k])
	}
}

// tupleSet returns the sorted distinct ids in flat — rank.Union semantics
// with a dense-marks fast path for the small non-negative ids real datasets
// use (indices into the distribution slice).
func tupleSet(flat []int, ls *tpo.LeafSet) []int {
	maxID := -1
	for _, id := range flat {
		if id < 0 || id > len(flat)+1024 {
			return ls.Tuples() // unusual ids: the map-based path
		}
		if id > maxID {
			maxID = id
		}
	}
	seen := make([]bool, maxID+1)
	count := 0
	for _, id := range flat {
		if !seen[id] {
			seen[id] = true
			count++
		}
	}
	out := make([]int, 0, count)
	for id, ok := range seen {
		if ok {
			out = append(out, id)
		}
	}
	return out
}

// Len returns the number of leaves in the arena.
func (a *Arena) Len() int { return a.n }

// Tuples returns the sorted distinct tuple ids (shared; do not mutate).
func (a *Arena) Tuples() []int { return a.tuples }

// buildGroups assigns the per-level prefix-group ids: a leaf's level-l id is
// determined by its level-(l-1) id and the tuple at position l-1, so one map
// pass per level suffices.
func (a *Arena) buildGroups() {
	a.groups = make([]int32, a.k*a.n)
	a.groupN = make([]int32, a.k)
	type prefix struct {
		parent int32
		tuple  int32
	}
	ids := make(map[prefix]int32, a.n)
	for l := 0; l < a.k; l++ {
		clear(ids)
		var next int32
		row := a.groups[l*a.n : (l+1)*a.n]
		for i := 0; i < a.n; i++ {
			var parent int32
			if l > 0 {
				parent = a.groups[(l-1)*a.n+i]
			}
			key := prefix{parent, a.dense[i*a.k+l]}
			id, ok := ids[key]
			if !ok {
				id = next
				next++
				ids[key] = id
			}
			row[i] = id
		}
		a.groupN[l] = next
	}
}

// Classification byte values, mirroring tpo.Consistency so index rows can be
// compared against tpo.PathConsistency directly.
const (
	classConsistent   = byte(tpo.Consistent)
	classInconsistent = byte(tpo.Inconsistent)
	classUndetermined = byte(tpo.Undetermined)
)

// classStats are one question's per-class aggregates over the arena's
// nonzero-weight leaves. They make the single-question (root) residual sweep
// O(1) per question for U_H — branch mass, leaf count and entropy numerator
// Σ w·log2 w all decompose over {Consistent, Inconsistent, Undetermined} —
// and O(1)+one dot pass for U_MPO (branch argmax from the per-class maxima).
type classStats struct {
	cnt   [3]int32   // leaves with w ≠ 0
	w     [3]float64 // Σ w
	wlog  [3]float64 // Σ w·log2(w) over w > 0
	maxW  [3]float64 // max w
	maxAt [3]int32   // first leaf attaining maxW (-1 when the class is empty)
}

// ConsistencyIndex precomputes, for every candidate question over the
// arena's tuples, the classification of every leaf against the question's
// "yes" answer (packed byte rows), the question's pairwise probability π,
// and the per-class aggregates above, in a single O(leaves·(K + pairs))
// pass. The relevant subset Q_K — the questions both of whose answers can
// prune something — falls out of the same pass.
type ConsistencyIndex struct {
	arena    *Arena
	all      []tpo.Question // every tuple pair, lexicographic
	class    []byte         // len(all)·n classification rows
	pi       []float64      // π per candidate question
	stats    []classStats   // per-question aggregates
	relevant []int32        // indices into all forming Q_K
	qrow     map[tpo.Question]int32
}

// NewConsistencyIndex builds the index, resolving each pair's π exactly once
// through ctx (which consults the dense per-tree matrix, not the pairwise
// cache, in the hot path).
func NewConsistencyIndex(a *Arena, ctx *Context) *ConsistencyIndex {
	tn := len(a.tuples)
	nq := tn * (tn - 1) / 2
	ci := &ConsistencyIndex{
		arena: a,
		all:   make([]tpo.Question, 0, nq),
		pi:    make([]float64, 0, nq),
		class: make([]byte, nq*a.n),
		qrow:  make(map[tpo.Question]int32, nq),
	}
	pim := ctx.piMatrix(a.tuples)
	for i := 0; i < tn; i++ {
		for j := i + 1; j < tn; j++ {
			ci.qrow[tpo.NewQuestion(a.tuples[i], a.tuples[j])] = int32(len(ci.all))
			ci.all = append(ci.all, tpo.NewQuestion(a.tuples[i], a.tuples[j]))
			ci.pi = append(ci.pi, pim.at(i, j))
		}
	}
	ci.stats = make([]classStats, nq)
	for q := range ci.stats {
		ci.stats[q].maxAt = [3]int32{-1, -1, -1}
	}
	pos := make([]int32, tn)
	for i := range pos {
		pos[i] = -1
	}
	for leaf := 0; leaf < a.n; leaf++ {
		base := leaf * a.k
		for d := 0; d < a.k; d++ {
			pos[a.dense[base+d]] = int32(d)
		}
		w := a.w[leaf]
		var wl float64
		if w > 0 {
			wl = w * math.Log2(w)
		}
		q := 0
		for i := 0; i < tn; i++ {
			pi := pos[i]
			for j := i + 1; j < tn; j++ {
				pj := pos[j]
				var cl byte
				switch {
				case pi >= 0 && pj >= 0:
					if pi < pj {
						cl = classConsistent
					} else {
						cl = classInconsistent
					}
				case pi >= 0:
					cl = classConsistent
				case pj >= 0:
					cl = classInconsistent
				default:
					cl = classUndetermined
				}
				ci.class[q*a.n+leaf] = cl
				if w != 0 {
					st := &ci.stats[q]
					st.cnt[cl]++
					st.w[cl] += w
					st.wlog[cl] += wl
					if w > st.maxW[cl] {
						st.maxW[cl] = w
						st.maxAt[cl] = int32(leaf)
					}
				}
				q++
			}
		}
		for d := 0; d < a.k; d++ {
			pos[a.dense[base+d]] = -1
		}
	}
	for q := 0; q < nq; q++ {
		// Relevant iff both answers carry mass. The per-class sums are plain
		// (uncompensated) accumulations of non-negative values, so positivity
		// is exact.
		if ci.stats[q].w[classConsistent] > 0 && ci.stats[q].w[classInconsistent] > 0 {
			ci.relevant = append(ci.relevant, int32(q))
		}
	}
	return ci
}

// Relevant returns Q_K in lexicographic order — identical to
// (*tpo.LeafSet).RelevantQuestions on the snapshotted set.
func (ci *ConsistencyIndex) Relevant() []tpo.Question {
	out := make([]tpo.Question, len(ci.relevant))
	for i, q := range ci.relevant {
		out[i] = ci.all[q]
	}
	return out
}

// Row returns the classification row and π for a question the index covers.
func (ci *ConsistencyIndex) Row(q tpo.Question) (row []byte, pi float64, ok bool) {
	r, ok := ci.qrow[q]
	if !ok {
		return nil, 0, false
	}
	return ci.class[int(r)*ci.arena.n:][:ci.arena.n], ci.pi[r], true
}

// cell is one partition cell: a subsequence of arena leaves with reweighted
// (unnormalized) weights. mass is the Kahan-summed total — the probability
// of the answer combination that produced the cell.
type cell struct {
	idx  []int32
	w    []float64
	mass float64
}

// rootCell returns the whole-arena cell.
func (a *Arena) rootCell() *cell {
	idx := make([]int32, a.n)
	for i := range idx {
		idx[i] = int32(i)
	}
	w := append([]float64(nil), a.w...)
	return &cell{idx: idx, w: w, mass: numeric.Sum(w)}
}

// splitCell partitions c by a classification row, appending into the yes/no
// buffers (reset by the caller): zero-weight leaves are dropped, determined
// leaves go to the branch their order agrees with, undetermined leaves flow
// into both branches weighted by π, and degenerate π values skip a branch.
func splitCell(c *cell, row []byte, pi float64, yi, ni []int32, yw, nw []float64) (yesIdx, noIdx []int32, yesW, noW []float64) {
	for p, leaf := range c.idx {
		w := c.w[p]
		if w == 0 {
			continue
		}
		switch row[leaf] {
		case classConsistent:
			yi = append(yi, leaf)
			yw = append(yw, w)
		case classInconsistent:
			ni = append(ni, leaf)
			nw = append(nw, w)
		default:
			if pi > 0 {
				yi = append(yi, leaf)
				yw = append(yw, w*pi)
			}
			if pi < 1 {
				ni = append(ni, leaf)
				nw = append(nw, w*(1-pi))
			}
		}
	}
	return yi, ni, yw, nw
}

// cellView adapts a cell (or any index/weight pair over an arena) to
// uncertainty.View: weights are normalized on the fly by the cell's inverse
// mass, paths are zero-copy headers into the arena.
type cellView struct {
	a   *Arena
	idx []int32
	w   []float64
	inv float64
}

func (v *cellView) K() int               { return v.a.k }
func (v *cellView) Len() int             { return len(v.idx) }
func (v *cellView) Weight(i int) float64 { return v.w[i] * v.inv }
func (v *cellView) Path(i int) rank.Ordering {
	return v.a.paths[v.idx[i]]
}

// PrefixGroup implements uncertainty.PrefixGrouper. (The sync.Once fast
// path is one atomic load — noise next to the group lookup itself.)
func (v *cellView) PrefixGroup(level, i int) int32 {
	v.a.groupsOnce.Do(v.a.buildGroups)
	return v.a.groups[(level-1)*v.a.n+int(v.idx[i])]
}

// GroupCount implements uncertainty.PrefixGrouper. It is the measure's
// entry point into the grouping (called once per level before any
// PrefixGroup), so it triggers the lazy build.
func (v *cellView) GroupCount(level int) int {
	v.a.groupsOnce.Do(v.a.buildGroups)
	return int(v.a.groupN[level-1])
}

// LeafID implements uncertainty.LeafIdentifier.
func (v *cellView) LeafID(i int) int32 { return v.idx[i] }

// DistRow implements uncertainty.LeafIdentifier via the arena's shared
// row cache.
func (v *cellView) DistRow(ref int32, penalty float64) []float64 {
	return v.a.DistRow(ref, penalty)
}

// DistRow returns the normalized distances of every arena leaf to the
// reference leaf, computed once per reference by fillDistRow and shared by
// all cells and workers — residual sweeps re-reference the same few heavy
// leaves across most branches. A row is filled into an array a filter
// released when there is one. Safe for concurrent use.
func (a *Arena) DistRow(ref int32, penalty float64) []float64 {
	if penalty == 0 {
		penalty = rank.DefaultPenalty
	}
	a.rowMu.Lock()
	defer a.rowMu.Unlock()
	if a.rows == nil || a.rowPenalty != penalty {
		a.rows = make(map[int32][]float64)
		a.rowPenalty = penalty
	}
	if row, ok := a.rows[ref]; ok {
		return row
	}
	var row []float64
	if last := len(a.rowSpare) - 1; last >= 0 {
		row, a.rowSpare = a.rowSpare[last][:a.n], a.rowSpare[:last]
	} else {
		row = make([]float64, a.n)
	}
	a.fillDistRow(row, ref, penalty)
	a.rows[ref] = row
	return row
}

// filtered returns the arena over ls, a strict subsequence of a's leaves:
// slot maps each of a's slots to its slot in ls, -1 for dropped leaves. Paths
// come from ls's flat backing and weights from ls, as NewArena takes them;
// dense ids and cached distance rows are functions of the paths alone, so
// they are filtered rather than re-derived. The filtered arena is built in
// a's own arrays: the slot map is monotone, so compacting front to back
// never writes a destination past its source. a must not be used
// afterwards.
func (a *Arena) filtered(ls *tpo.LeafSet, slot []int32) *Arena {
	k, m := a.k, ls.Len()
	na := &Arena{k: k, n: m, tuples: a.tuples, tidx: a.tidx, w: a.w, paths: a.paths}
	na.adoptLeaves(ls)
	for i, s := range slot {
		if s >= 0 {
			copy(a.dense[int(s)*k:(int(s)+1)*k], a.dense[i*k:(i+1)*k])
		}
	}
	na.dense = a.dense[:m*k]

	// Distances depend only on the leaf orderings, and fillDistRow's entry
	// for a leaf is a function of that leaf's path and the reference's
	// alone (the state it resumes from is that of the prefix it shares with
	// the previous leaf), so a surviving reference's row filtered to the
	// surviving slots is float-for-float the row a fresh computation would
	// produce. A row
	// whose reference was dropped is released for DistRow to refill; every
	// released row holds at least a.n ≥ m entries.
	a.rowMu.Lock()
	defer a.rowMu.Unlock()
	na.rowPenalty, na.rowSpare = a.rowPenalty, a.rowSpare
	na.rowPosR, na.rowSteps, na.rowSeen = a.rowPosR, a.rowSteps, a.rowSeen
	if len(a.rows) > 0 {
		na.rows = make(map[int32][]float64, len(a.rows))
		for ref, row := range a.rows {
			nr := slot[ref]
			if nr < 0 {
				na.rowSpare = append(na.rowSpare, row)
				continue
			}
			for i, s := range slot {
				if s >= 0 {
					row[s] = row[i]
				}
			}
			na.rows[nr] = row[:m]
		}
	}
	return na
}

// distStep is the Kendall state of fillDistRow after a probe-path prefix:
// the shared tuples seen so far (s), the order flips among them (m), the
// probe-only-before-shared pairs (a) and the sum of their reference
// positions (sp). The set of reference positions seen is kept beside it.
type distStep struct {
	s, m, a, sp int32
}

// fillDistRow computes the normalized generalized Kendall distance of every
// arena leaf to the ref leaf. It is algebraically identical to
// rank.NewTopKDist(refPath, penalty).Normalized(path) — the distance is a
// sum of exactly-representable unit and half-penalty terms, so both paths
// produce the same floats for the default penalty — but specialized to the
// arena's equal-length dense paths: with s shared tuples between probe o and
// reference r,
//
//	K^(p)(o, r) = M + A + B + (k−s)² + p·(k−s)(k−s−1)
//
// where M counts order-flipped shared pairs, A counts probe pairs whose
// earlier element is probe-only and later element shared, B counts reference
// pairs whose earlier element is reference-only and later element shared,
// (k−s)² is the probe-only × reference-only block (one each), and the last
// term is the two within-only blocks at penalty p.
//
// The integers accumulate along the probe path. A tuple at probe depth d
// whose reference position is p ≥ 0 flips order with every shared tuple
// seen before it at a later reference position, M += |seen ∩ (p, k)|; it
// follows the d−s probe-only tuples before it, A += d−s; and it adds p to
// Σp. At the end B = Σp − s(s−1)/2: a shared tuple at reference position p
// has p tuples before it there, of which the shared ones are the shared
// positions below p, and those number s(s−1)/2 over all s. The state after
// every depth is kept, so each leaf resumes at the first depth where its
// path differs from the previous leaf's — tree snapshots enumerate siblings
// next to each other, so a row costs about one step per tree node rather
// than K² per leaf. The seen set takes one word per 64 reference positions.
// Runs under rowMu.
func (a *Arena) fillDistRow(row []float64, ref int32, penalty float64) {
	k := a.k
	max := rank.KendallTopKMax(k, k, penalty)
	if max == 0 {
		clear(row)
		return
	}
	if cap(a.rowPosR) < len(a.tuples) {
		a.rowPosR = make([]int32, len(a.tuples))
	}
	posR := a.rowPosR[:len(a.tuples)]
	for i := range posR {
		posR[i] = -1
	}
	for d, t := range a.dense[int(ref)*k : (int(ref)+1)*k] {
		posR[t] = int32(d)
	}
	words := (k + 63) / 64
	if cap(a.rowSteps) < k+1 {
		a.rowSteps = make([]distStep, k+1)
	}
	if cap(a.rowSeen) < (k+1)*words {
		a.rowSeen = make([]uint64, (k+1)*words)
	}
	steps, seen := a.rowSteps[:k+1], a.rowSeen[:(k+1)*words]
	steps[0] = distStep{}
	clear(seen[:words])
	var prev []int32
	for leaf := 0; leaf < a.n; leaf++ {
		path := a.dense[leaf*k : (leaf+1)*k]
		d := 0
		if prev != nil {
			for d < k && path[d] == prev[d] {
				d++
			}
		}
		for ; d < k; d++ {
			st := steps[d]
			cur, next := seen[d*words:(d+1)*words], seen[(d+1)*words:(d+2)*words]
			copy(next, cur)
			if p := posR[path[d]]; p >= 0 {
				w, b := p>>6, uint(p&63)
				flips := bits.OnesCount64(cur[w] >> (b + 1))
				for _, x := range cur[w+1:] {
					flips += bits.OnesCount64(x)
				}
				st.m += int32(flips)
				st.a += int32(d) - st.s
				st.sp += p
				st.s++
				next[w] |= 1 << b
			}
			steps[d+1] = st
		}
		prev = path
		st := steps[k]
		b := st.sp - st.s*(st.s-1)/2
		ks := k - int(st.s)
		dist := float64(st.m+st.a+b) + float64(ks*ks) + penalty*float64(ks*(ks-1))
		row[leaf] = dist / max
	}
}

// evalScratch is one worker's reusable state for residual evaluation: split
// buffers, the measure scratch, and the view shells. One per goroutine.
type evalScratch struct {
	us            uncertainty.Scratch
	view          cellView
	rootIdx       []int32
	yesIdx, noIdx []int32
	yesW, noW     []float64
}

// value evaluates the context's measure over (idx, w) with mass m.
func (e *ResidualEngine) value(s *evalScratch, idx []int32, w []float64, mass float64) float64 {
	s.view = cellView{a: e.arena, idx: idx, w: w, inv: 1 / mass}
	return e.ctx.Measure.ValueView(&s.view, &s.us)
}
