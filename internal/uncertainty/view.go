package uncertainty

import (
	"math"

	"crowdtopk/internal/numeric"
	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
)

// View is a read-only, already-normalized view of a leaf multiset. It is the
// normalization-free counterpart of *tpo.LeafSet: the expected-residual
// sweeps evaluate measures over partition cells thousands of times per
// question batch, and materializing a normalized LeafSet copy per evaluation
// dominated both time and allocations. A View exposes the same information
// without owning any of it.
type View interface {
	// K is the query depth (the length of complete leaf paths).
	K() int
	// Len returns the number of leaves.
	Len() int
	// Weight returns the i-th leaf's normalized probability.
	Weight(i int) float64
	// Path returns the i-th leaf ordering. The returned slice aliases shared
	// storage: callers must neither mutate it nor retain it past the
	// evaluation.
	Path(i int) rank.Ordering
}

// PrefixGrouper is implemented by views that can identify leaves sharing a
// path prefix in O(1) — precomputed dense group ids per level. U_Hw uses it
// to aggregate the per-level prefix marginals without hashing paths.
type PrefixGrouper interface {
	// PrefixGroup returns an id g such that two leaves carry the same g iff
	// their paths agree on the first `level` entries. Ids are dense in
	// [0, GroupCount(level)). level is 1-based.
	PrefixGroup(level, i int) int32
	// GroupCount returns the number of distinct level-prefixes.
	GroupCount(level int) int
}

// LeafIdentifier is implemented by views whose leaves come from a fixed,
// shared universe with stable identities — the partition cells of one
// residual sweep all reference the same arena. U_MPO exploits it: when the
// reference ordering is itself a universe leaf, the view supplies the
// normalized distances of every universe leaf to that reference from a
// cache shared by every cell (and every worker) of the sweep, replacing a
// Kendall evaluation per (cell, leaf) with a dot product.
type LeafIdentifier interface {
	View
	// LeafID returns the i-th leaf's stable universe id.
	LeafID(i int) int32
	// DistRow returns normalized distances of every universe leaf (indexed
	// by leaf id) to the reference leaf. The row is shared and must not be
	// mutated; implementations cache and must be safe for concurrent calls.
	DistRow(refID int32, penalty float64) []float64
}

// Scratch holds the reusable buffers that make ValueView evaluation
// allocation-free after warm-up. It is not safe for concurrent use: parallel
// sweeps keep one Scratch per worker. A nil *Scratch is valid and simply
// allocates on every call.
type Scratch struct {
	sums    []float64
	paths   []rank.Ordering
	weights []float64
	dist    *rank.TopKDist
}

// sumsBuf returns a zeroed float buffer of length n.
func (s *Scratch) sumsBuf(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	if cap(s.sums) < n {
		s.sums = make([]float64, n)
		return s.sums
	}
	buf := s.sums[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// listBufs returns path/weight buffers of length n for aggregation inputs.
func (s *Scratch) listBufs(n int) ([]rank.Ordering, []float64) {
	if s == nil {
		return make([]rank.Ordering, n), make([]float64, n)
	}
	if cap(s.paths) < n {
		s.paths = make([]rank.Ordering, n)
	}
	if cap(s.weights) < n {
		s.weights = make([]float64, n)
	}
	return s.paths[:n], s.weights[:n]
}

// distancer returns a TopKDist referenced at ref, reusing the scratch's
// instance when possible.
func (s *Scratch) distancer(ref rank.Ordering, penalty float64) *rank.TopKDist {
	if s == nil {
		return rank.NewTopKDist(ref, penalty)
	}
	if s.dist == nil {
		s.dist = rank.NewTopKDist(ref, penalty)
	} else {
		s.dist.Reset(ref, penalty)
	}
	return s.dist
}

// Materialize copies a view into a standalone LeafSet.
func Materialize(v View) *tpo.LeafSet {
	n := v.Len()
	ls := &tpo.LeafSet{
		K:     v.K(),
		Paths: make([]rank.Ordering, n),
		W:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		ls.Paths[i] = v.Path(i).Clone()
		ls.W[i] = v.Weight(i)
	}
	return ls
}

// ValueView implements Measure: the same compensated −Σ w·log2 w as
// numeric.EntropyBits, fed directly from the view's normalized weights.
func (Entropy) ValueView(v View, _ *Scratch) float64 {
	var k numeric.KahanSum
	for i, n := 0, v.Len(); i < n; i++ {
		if w := v.Weight(i); w > 0 {
			k.Add(-w * math.Log2(w))
		}
	}
	h := k.Sum()
	if h < 0 { // rounding can produce e.g. -1e-17 on a singleton
		return 0
	}
	return h
}

// ValueView implements Measure. When the view can group prefixes, the
// per-level marginals are accumulated into a dense scratch vector instead of
// a string-keyed map; otherwise it falls back to the materialized path.
func (w WeightedEntropy) ValueView(v View, s *Scratch) float64 {
	if v.Len() <= 1 || v.K() == 0 {
		return 0
	}
	g, ok := v.(PrefixGrouper)
	if !ok {
		return w.Value(Materialize(v))
	}
	decay := w.Decay
	if decay == nil {
		decay = func(l int) float64 { return 1 / float64(l) }
	}
	n := v.Len()
	var totalW, acc float64
	for l := 1; l <= v.K(); l++ {
		sums := s.sumsBuf(g.GroupCount(l))
		for i := 0; i < n; i++ {
			sums[g.PrefixGroup(l, i)] += v.Weight(i)
		}
		wl := decay(l)
		totalW += wl
		acc += wl * numeric.EntropyBits(sums) // groups absent from the view sum to 0 and vanish
	}
	if totalW == 0 {
		return 0
	}
	return acc / totalW
}

// ValueView implements Measure. The aggregation input is assembled from
// zero-copy path headers; only the aggregation itself allocates.
func (o ORA) ValueView(v View, s *Scratch) float64 {
	if v.Len() <= 1 {
		return 0
	}
	n := v.Len()
	paths, weights := s.listBufs(n)
	for i := 0; i < n; i++ {
		paths[i] = v.Path(i)
		weights[i] = v.Weight(i)
	}
	var agg rank.Ordering
	var err error
	if o.Footrule {
		agg, err = rank.FootruleAggregate(paths, weights)
	} else {
		agg, err = rank.Aggregate(paths, weights)
	}
	if err != nil {
		// Weights are non-negative by construction; aggregation cannot
		// fail on leaf sets. Treat a failure as maximal uncertainty so
		// that it cannot be mistaken for a resolved tree.
		return 1
	}
	return expectedDistanceView(v, agg.Prefix(v.K()), o.Penalty, s)
}

// ValueView implements Measure. Views with stable leaf identities take
// the cached-distance-row path: the MPO reference is always one of the
// universe's leaves, and residual sweeps re-reference the same few heavy
// leaves across most partition cells.
func (m MPO) ValueView(v View, s *Scratch) float64 {
	if v.Len() <= 1 {
		return 0
	}
	best, bw := 0, v.Weight(0)
	for i, n := 1, v.Len(); i < n; i++ {
		if w := v.Weight(i); w > bw { // first on ties, as numeric.ArgMax
			best, bw = i, w
		}
	}
	if li, ok := v.(LeafIdentifier); ok {
		penalty := m.Penalty
		if penalty == 0 {
			penalty = rank.DefaultPenalty
		}
		row := li.DistRow(li.LeafID(best), penalty)
		var acc numeric.KahanSum
		for i, n := 0, v.Len(); i < n; i++ {
			w := v.Weight(i)
			if w == 0 {
				continue
			}
			acc.Add(w * row[li.LeafID(i)])
		}
		return acc.Sum()
	}
	return expectedDistanceView(v, v.Path(best), m.Penalty, s)
}

// expectedDistanceView is expectedDistance over a View, reusing the
// scratch's distancer instead of allocating one per evaluation.
func expectedDistanceView(v View, ref rank.Ordering, penalty float64, s *Scratch) float64 {
	if penalty == 0 {
		penalty = rank.DefaultPenalty
	}
	d := s.distancer(ref, penalty)
	var acc numeric.KahanSum
	for i, n := 0, v.Len(); i < n; i++ {
		w := v.Weight(i)
		if w == 0 {
			continue
		}
		acc.Add(w * d.Normalized(v.Path(i)))
	}
	return acc.Sum()
}
