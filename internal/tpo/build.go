package tpo

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"crowdtopk/internal/dist"
	"crowdtopk/internal/numeric"
	"crowdtopk/internal/par"
	"crowdtopk/internal/rank"
)

// BuildOptions configures TPO construction.
type BuildOptions struct {
	// GridSize is the number of points of the shared evaluation grid.
	// Zero selects DefaultGridSize.
	GridSize int
	// MaxLeaves aborts construction with ErrTooLarge when the number of
	// depth-K prefixes exceeds it. Zero selects DefaultMaxLeaves.
	MaxLeaves int
	// ProbEpsilon drops prefixes whose raw probability falls below it;
	// this bounds the tree by the numerically meaningful orderings.
	// Zero selects DefaultProbEpsilon.
	ProbEpsilon float64
	// Workers is the number of goroutines expanding independent subtrees
	// during Build (and growing leaves during Extend). Zero selects
	// GOMAXPROCS; 1 forces the sequential build. The resulting tree —
	// child order, leaf order, and every probability bit — is identical
	// for every worker count.
	Workers int
}

// Defaults for BuildOptions.
const (
	DefaultGridSize    = 1024
	DefaultMaxLeaves   = 500_000
	DefaultProbEpsilon = 1e-9
)

func (o BuildOptions) withDefaults() BuildOptions {
	if o.GridSize == 0 {
		o.GridSize = DefaultGridSize
	}
	if o.MaxLeaves == 0 {
		o.MaxLeaves = DefaultMaxLeaves
	}
	if o.ProbEpsilon == 0 {
		o.ProbEpsilon = DefaultProbEpsilon
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Build materializes the tree of possible orderings of the given score
// distributions down to depth k. The prefix probability of each node is the
// exact joint probability Pr(s_{t_1} > … > s_{t_d} > max of the rest),
// evaluated by chained cumulative integrals on a grid shared by all tuples:
//
//	P(prefix) = ∫ f_{t_d}(x) · C_{d−1}(x) · Π_{u∉prefix} F_u(x) dx
//	C_d(x)    = ∫_x^∞ f_{t_d}(y) · C_{d−1}(y) dy,   C_0 ≡ 1
//
// Leaf probabilities are renormalized to sum to one; the pre-normalization
// mass (≈1 up to quadrature error) is returned in the tree diagnostics.
//
// Construction parallelizes across disjoint subtrees when opt.Workers
// permits; the result is byte-identical to the sequential build.
func Build(ds []dist.Distribution, k int, opt BuildOptions) (*Tree, error) {
	// Extend is the only reader of the grid samples once construction is
	// over, and it does not apply to a tree of depth K: the samples live in
	// a pooled buffer for the duration of the build only.
	samples, _ := samplePool.Get().(*[]float64)
	if samples == nil {
		samples = new([]float64)
	}
	defer samplePool.Put(samples)
	t, err := prepare(ds, k, opt, samples)
	if err != nil {
		return nil, err
	}
	defer func() { t.pdfs, t.cdfs, t.wins = nil, nil, nil }()
	t.opt = opt.withDefaults()
	root := buildJob{node: t.Root, c: unitChain(t.grid.Len()), remaining: allRemaining(len(ds))}
	if err := expandAll(t, t.opt, []buildJob{root}, k); err != nil {
		return nil, err
	}
	t.depth = k
	t.buildMass = t.LeafMass()
	if err := t.renormalize(); err != nil {
		return nil, fmt.Errorf("tpo: build produced no orderings: %w", err)
	}
	return t, nil
}

// BuildMass returns the unnormalized probability mass found by the last full
// Build — a quadrature diagnostic that should be within grid error of 1.
func (t *Tree) BuildMass() float64 { return t.buildMass }

// samplePool recycles Build's grid samples, one buffer per build.
var samplePool sync.Pool // *[]float64

// newTree validates inputs and returns an empty tree on the shared grid,
// without grid samples: enough for a tree that is never expanded.
func newTree(ds []dist.Distribution, k int, opt BuildOptions) (*Tree, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrInvalidInput)
	}
	if k < 1 || k > len(ds) {
		return nil, fmt.Errorf("%w: k=%d with %d tuples", ErrInvalidInput, k, len(ds))
	}
	opt = opt.withDefaults()
	grid, err := dist.SharedGrid(ds, opt.GridSize)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	for i, d := range ds {
		lo, hi := d.Support()
		if hi-lo < 2*grid.Step {
			return nil, fmt.Errorf("%w: tuple %d support [%g, %g] narrower than two grid steps; use a finer grid or a wider distribution", ErrInvalidInput, i, lo, hi)
		}
	}
	return &Tree{Root: &Node{Tuple: -1, Prob: 1}, K: k, Dists: ds, grid: grid}, nil
}

// prepare is newTree plus the shared grid samples and their windows. The
// samples are laid out in *samples when it is non-nil (grown as needed), and
// in a fresh allocation otherwise.
func prepare(ds []dist.Distribution, k int, opt BuildOptions, samples *[]float64) (*Tree, error) {
	t, err := newTree(ds, k, opt)
	if err != nil {
		return nil, err
	}
	t.pdfs = make([][]float64, len(ds))
	t.cdfs = make([][]float64, len(ds))
	t.wins = make([]sampleWindow, len(ds))
	gl := t.grid.Len()
	var buf []float64
	if samples != nil && cap(*samples) >= 2*len(ds)*gl {
		buf = (*samples)[:2*len(ds)*gl]
	} else {
		buf = make([]float64, 2*len(ds)*gl)
		if samples != nil {
			*samples = buf
		}
	}
	for i, d := range ds {
		pdf, cdf := buf[2*i*gl:(2*i+1)*gl:(2*i+1)*gl], buf[(2*i+1)*gl:(2*i+2)*gl:(2*i+2)*gl]
		for j, x := range t.grid.Points() {
			pdf[j], cdf[j] = d.PDF(x), d.CDF(x)
		}
		t.pdfs[i], t.cdfs[i], t.wins[i] = pdf, cdf, windowOf(pdf, cdf)
	}
	return t, nil
}

// sampleWindow bounds where a tuple's grid samples can differ from their
// tails: pdf[i] == 0 outside [pdfLo, pdfHi], cdf[i] == 0 below cdfLo and
// cdf[i] == 1 from cdfOne to the end of the grid. The bounds come from the
// sampled arrays, not from Support, so they are exact for the values the
// kernel multiplies. A PDF with no nonzero sample has pdfLo > pdfHi, and a
// CDF whose last sample is below 1 has cdfOne == len(cdf).
type sampleWindow struct{ pdfLo, pdfHi, cdfLo, cdfOne int }

func windowOf(pdf, cdf []float64) sampleWindow {
	w := sampleWindow{pdfLo: len(pdf), pdfHi: -1, cdfLo: len(cdf), cdfOne: len(cdf)}
	for i := range pdf {
		if pdf[i] != 0 {
			w.pdfLo = i
			break
		}
	}
	for i := len(pdf) - 1; i >= 0; i-- {
		if pdf[i] != 0 {
			w.pdfHi = i
			break
		}
	}
	for i := range cdf {
		if cdf[i] != 0 {
			w.cdfLo = i
			break
		}
	}
	for i := len(cdf) - 1; i >= 0 && cdf[i] == 1; i-- {
		w.cdfOne = i
	}
	return w
}

// saturated reports whether tuple id's sampled CDF is exactly 1 from grid
// index i to the end of the grid.
func (t *Tree) saturated(id, i int) bool { return t.wins[id].cdfOne <= i }

func allRemaining(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// buildJob is one independent unit of parallel construction: a subtree root
// together with the survival chain and candidate set it needs. Jobs own
// disjoint subtrees and share nothing mutable besides the leaf budget, so
// any number of them can expand concurrently.
type buildJob struct {
	node      *Node
	c         chain
	remaining []int
}

// chain is a survival chain C_d sampled on the grid. Only [lo, top] is
// stored: below lo the chain is the constant base, and above top it is
// zero. Storing the constant tails would cost a write per grid point for
// values every reader can supply itself.
type chain struct {
	vals    []float64 // vals[i] for lo <= i <= top
	lo, top int
	base    float64
}

// unitChain is C_0 ≡ 1 on a grid of n points.
func unitChain(n int) chain { return chain{lo: n, top: n - 1, base: 1} }

// frontierFactor·workers is the number of independent subtree jobs targeted
// before handing the frontier to the pool. Oversplitting keeps the pool busy
// when subtree sizes are skewed (tuples whose support reaches high carry far
// more orderings than tail tuples).
const frontierFactor = 8

// expandAll grows every job's subtree down to depth k using opt.Workers
// goroutines. The result is byte-identical to a sequential build: children
// are emitted in candidate order regardless of scheduling, each subtree is
// produced by exactly the floating-point operations the sequential recursion
// would perform, and jobs never touch each other's nodes.
func expandAll(t *Tree, opt BuildOptions, jobs []buildJob, k int) error {
	leaves := new(atomic.Int64)
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > 1 {
		// Widen the frontier one level at a time until there is enough
		// independent work to occupy the pool. Frontier chains live in
		// fb's scratch, which is released only once every job has expanded.
		fb := newBuilder(t, opt, leaves)
		defer fb.release()
		for len(jobs) > 0 && len(jobs) < frontierFactor*workers {
			var next []buildJob
			for _, j := range jobs {
				if err := fb.expand(j.node, j.c, j.remaining, k, &next); err != nil {
					return err
				}
			}
			jobs = next
		}
	}
	builders := make([]*builder, workers)
	defer releaseAll(builders)
	return par.FirstError(par.For(len(jobs), workers, func(w, i int) error {
		if builders[w] == nil {
			builders[w] = newBuilder(t, opt, leaves)
		}
		j := jobs[i]
		return builders[w].expand(j.node, j.c, j.remaining, k, nil)
	}))
}

// builder carries one worker's scratch so a full subtree DFS allocates
// O(K·N·G) once instead of per node. Builders are never shared between
// goroutines; the only cross-worker state is the leaf budget. The scratch
// itself outlives the builder: release hands it to the next build on the
// same grid length.
type builder struct {
	t      *Tree
	opt    BuildOptions
	leaves *atomic.Int64 // shared across the workers of one Build/Extend
	*scratch
}

type scratch struct {
	depths    []*depthScratch
	chain     []float64   // childrenOf's rebuilt survival chain
	jobChains [][]float64 // frontier jobs' survival chains
	jobsUsed  int         // jobChains handed out since the builder was made
}

type depthScratch struct {
	prefixProd [][]float64 // prefixProd[a] = Π of the first a unsaturated F_u
	suffixProd [][]float64 // suffixProd[a] = Π of the unsaturated F_u after those
	integrand  []float64
	childC     []float64
	rest       []int // the recursing child's remaining tuples
}

// scratchPools holds one sync.Pool of *scratch per grid length. A
// catalog-shape build (N=24, K=5, 1,024 points) needs about 1.9 MB of
// product rows; pooling them keeps a server that builds a tree per session
// from turning that into garbage-collector work.
var scratchPools sync.Map // int → *sync.Pool

func scratchPool(gridLen int) *sync.Pool {
	if p, ok := scratchPools.Load(gridLen); ok {
		return p.(*sync.Pool)
	}
	p, _ := scratchPools.LoadOrStore(gridLen, new(sync.Pool))
	return p.(*sync.Pool)
}

func newBuilder(t *Tree, opt BuildOptions, leaves *atomic.Int64) *builder {
	s, _ := scratchPool(t.grid.Len()).Get().(*scratch)
	if s == nil {
		s = &scratch{}
	}
	return &builder{t: t, opt: opt, leaves: leaves, scratch: s}
}

// release returns the builder's scratch to its pool; neither the builder
// nor any chain it handed out may be used afterwards.
func (b *builder) release() {
	b.jobsUsed = 0
	scratchPool(b.t.grid.Len()).Put(b.scratch)
	b.scratch = nil
}

// jobChain hands out a survival chain for a frontier job.
func (b *builder) jobChain() []float64 {
	if b.jobsUsed == len(b.jobChains) {
		b.jobChains = append(b.jobChains, make([]float64, b.t.grid.Len()))
	}
	b.jobsUsed++
	return b.jobChains[b.jobsUsed-1]
}

func releaseAll(bs []*builder) {
	for _, b := range bs {
		if b != nil {
			b.release()
		}
	}
}

func (b *builder) scratchAt(depth, nRemaining int) *depthScratch {
	for len(b.depths) <= depth {
		b.depths = append(b.depths, &depthScratch{})
	}
	s := b.depths[depth]
	g := b.t.grid.Len()
	for len(s.prefixProd) <= nRemaining {
		s.prefixProd = append(s.prefixProd, make([]float64, g))
		s.suffixProd = append(s.suffixProd, make([]float64, g))
	}
	if s.integrand == nil {
		s.integrand = make([]float64, g)
		s.childC = make([]float64, g)
	}
	return s
}

// expand materializes the children of n from its survival chain c and the
// remaining candidate tuples, appending them to n.Children in candidate
// order (which keeps the tree layout independent of goroutine scheduling),
// and continues down to depth k. Depth-k children are leaves and counted
// against the shared budget.
//
// Every grid loop does only work whose result is not already known. A
// candidate's integrand f_id·C·Π_{u≠id} F_u is an exact zero below its first
// nonzero PDF sample and below the largest first nonzero CDF sample among
// the other remaining tuples, and above its last nonzero PDF sample and the
// chain's top. The exclude-one products are read only inside the union of
// those windows, and they leave out every tuple whose CDF is exactly 1 all
// over it: x·1 == x, so the products keep their bits. The child chain
// ∫_x^Hi f_id·C is zero above the child's window and constant below it, and
// only the part in between is written. Every skipped term is an exact zero,
// and adding an exact zero to the Neumaier sum or to the running trapezoid
// total changes no bit, so the tree equals the full-grid evaluation node for
// node and bit for bit.
//
// When frontier is nil, expand recurses: the child survival chain lives in
// this depth's scratch (the recursive call only writes scratch at deeper
// levels and returns before the next sibling overwrites it, so no copy is
// needed). When frontier is non-nil, expand instead stops after this one
// level and appends each non-leaf child — with a chain of its own from
// jobChain — to *frontier for a worker pool to pick up. The frontier
// mode is deliberately folded into the same function (rather than an
// indirect descend callback) so the inner loops below stay directly
// optimizable: they are the hottest code in the package.
func (b *builder) expand(n *Node, c chain, remaining []int, k int, frontier *[]buildJob) error {
	t := b.t
	gl := t.grid.Len()
	s := b.scratchAt(n.depth, len(remaining))

	cdfLo1, cdfLo2, cdfLoOwner := topTwo(remaining, 0, func(id int) int { return t.wins[id].cdfLo })
	window := func(id int) (lo, hi int) {
		lo = cdfLo1
		if id == cdfLoOwner {
			lo = cdfLo2
		}
		w := t.wins[id]
		return max(lo, w.pdfLo), min(w.pdfHi, c.top)
	}

	// Exclude-one CDF products inside the union [ulo, uhi] of the candidate
	// windows, over the remaining tuples that are not ≡ 1 there:
	// prefixProd[a] multiplies the first a of them, suffixProd[a] the rest.
	ulo, uhi := gl, -1
	for _, id := range remaining {
		if lo, hi := window(id); lo <= hi {
			ulo, uhi = min(ulo, lo), max(uhi, hi)
		}
	}
	if ulo <= uhi {
		fill(s.prefixProd[0][ulo:uhi+1], 1)
		a := 0
		for _, id := range remaining {
			if t.saturated(id, ulo) {
				continue
			}
			cdf := t.cdfs[id][ulo : uhi+1]
			pp, prev := s.prefixProd[a+1][ulo:uhi+1], s.prefixProd[a][ulo:uhi+1]
			for i := range pp {
				pp[i] = prev[i] * cdf[i]
			}
			a++
		}
		fill(s.suffixProd[a][ulo:uhi+1], 1)
		for ri := len(remaining) - 1; ri >= 0; ri-- {
			id := remaining[ri]
			if t.saturated(id, ulo) {
				continue
			}
			a--
			cdf := t.cdfs[id][ulo : uhi+1]
			sp, next := s.suffixProd[a][ulo:uhi+1], s.suffixProd[a+1][ulo:uhi+1]
			for i := range sp {
				sp[i] = next[i] * cdf[i]
			}
		}
	}

	// Fast support filter: a candidate must be able to exceed every other
	// remaining tuple's lower bound.
	maxLo1, maxLo2, loOwner := topTwo(remaining, math.Inf(-1), func(id int) float64 {
		lo, _ := t.Dists[id].Support()
		return lo
	})
	unsat := 0 // remaining tuples before ri that the products multiply
	for ri, id := range remaining {
		pre, post := unsat, unsat
		if !t.saturated(id, ulo) {
			post++
			unsat++
		}
		_, hiS := t.Dists[id].Support()
		bound := maxLo1
		if id == loOwner {
			bound = maxLo2
		}
		if hiS <= bound {
			continue // cannot be the maximum of the remaining set
		}
		pdf := t.pdfs[id]
		p := 0.0 // the integral of an all-zero integrand
		if lo, hi := window(id); lo <= hi {
			integrandInto(s.integrand, pdf, c, s.prefixProd[pre], s.suffixProd[post], lo, hi)
			p = trapezoidWindow(t.grid, s.integrand, lo, hi)
		}
		if p <= b.opt.ProbEpsilon {
			continue
		}
		child := &Node{Tuple: id, Prob: p, depth: n.depth + 1}
		n.Children = append(n.Children, child)
		if child.depth == k {
			if b.leaves.Add(1) > int64(b.opt.MaxLeaves) {
				return fmt.Errorf("%w: more than %d depth-%d prefixes", ErrTooLarge, b.opt.MaxLeaves, k)
			}
			continue
		}
		childC := s.childC
		if frontier != nil {
			childC = b.jobChain()
		}
		cc := chainInto(t.grid, childC, pdf, c, t.wins[id].pdfLo, min(t.wins[id].pdfHi, c.top))
		if frontier != nil {
			rest := excluding(make([]int, 0, len(remaining)-1), remaining, ri)
			*frontier = append(*frontier, buildJob{child, cc, rest})
			continue
		}
		s.rest = excluding(s.rest, remaining, ri)
		if err := b.expand(child, cc, s.rest, k, nil); err != nil {
			return err
		}
	}
	return nil
}

// integrandInto writes f·C·pp·sp into dst over [lo, hi] (hi <= c.top),
// reading C's constant base below its stored part.
func integrandInto(dst, f []float64, c chain, pp, sp []float64, lo, hi int) {
	mid := min(max(lo, c.lo), hi+1)
	in, fw, pw, sw := dst[lo:mid], f[lo:mid], pp[lo:mid], sp[lo:mid]
	for i := range in {
		in[i] = fw[i] * c.base * pw[i] * sw[i]
	}
	if mid > hi {
		return
	}
	in, fw, pw, sw = dst[mid:hi+1], f[mid:hi+1], pp[mid:hi+1], sp[mid:hi+1]
	cw := c.vals[mid : hi+1]
	for i := range in {
		in[i] = fw[i] * cw[i] * pw[i] * sw[i]
	}
}

// trapezoidWindow is g.Trapezoid(ys) for samples that are exact zeros
// outside [lo, hi] (lo <= hi). It zeroes the two neighbours of the window
// in ys and sums the full rule's terms that touch the window, in the full
// rule's order and with its expression; every other term is (0+0)/2·step.
func trapezoidWindow(g *numeric.Grid, ys []float64, lo, hi int) float64 {
	if lo > 0 {
		lo--
		ys[lo] = 0
	}
	if hi < len(ys)-1 {
		hi++
		ys[hi] = 0
	}
	var acc numeric.KahanSum
	for i := lo + 1; i <= hi; i++ {
		acc.Add((ys[i-1] + ys[i]) / 2 * g.Step)
	}
	return acc.Sum()
}

// chainInto writes into dst the survival chain g.CumTrapezoidRight(pdf·c)
// for a product that is an exact zero outside [lo, hi] (hi <= c.top), and
// returns it. It evaluates the product and the running total only from hi
// down to lo-1: above that the full rule's total is still +0, which the
// returned chain's top records, and below it every term is (0+0)/2·step, so
// the total holds, which its base records. dst may alias c.vals.
func chainInto(g *numeric.Grid, dst, pdf []float64, c chain, lo, hi int) chain {
	if lo > hi {
		return chain{vals: dst, top: -1}
	}
	n := len(dst)
	i, next := hi, 0.0 // next is the product at i+1
	if hi == n-1 {
		ci := c.base
		if hi >= c.lo {
			ci = c.vals[hi]
		}
		next = pdf[hi] * ci
		dst[hi] = 0
		i--
	}
	acc := 0.0
	stop := max(lo-1, 0)
	for mid := max(stop, c.lo); i >= mid; i-- {
		cur := pdf[i] * c.vals[i]
		acc += (cur + next) / 2 * g.Step
		next = cur
		dst[i] = acc
	}
	for ; i >= stop; i-- { // below the stored part, c is its base
		cur := pdf[i] * c.base
		acc += (cur + next) / 2 * g.Step
		next = cur
		dst[i] = acc
	}
	return chain{vals: dst, lo: stop, top: hi, base: acc}
}

func fill(xs []float64, v float64) {
	for i := range xs {
		xs[i] = v
	}
}

// topTwo returns the largest and second-largest key(id) over ids (floor
// where there are fewer) and the first id holding the largest. A candidate
// in ids compares against the largest key among the others: m2 if it is
// the owner, m1 otherwise.
func topTwo[T cmp.Ordered](ids []int, floor T, key func(id int) T) (m1, m2 T, owner int) {
	m1, m2, owner = floor, floor, -1
	for _, id := range ids {
		switch v := key(id); {
		case owner < 0 || v > m1:
			m2, m1, owner = m1, v, id
		case v > m2:
			m2 = v
		}
	}
	return m1, m2, owner
}

// excluding writes xs without its i-th element into dst's storage.
func excluding(dst, xs []int, i int) []int {
	dst = append(dst[:0], xs[:i]...)
	return append(dst, xs[i+1:]...)
}

// LeafMass returns the sum of the current leaf probabilities (1 after any
// renormalizing operation; useful as a diagnostic mid-construction).
func (t *Tree) LeafMass() float64 {
	var k numeric.KahanSum
	t.walkLeaves(func(n *Node, _ rank.Ordering) { k.Add(n.Prob) })
	return k.Sum()
}
