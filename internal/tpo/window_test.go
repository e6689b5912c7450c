package tpo

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"crowdtopk/internal/dist"
	"crowdtopk/internal/rank"
)

// The full-grid kernel below is the evaluation the windowed one replaced,
// kept as the oracle: every loop runs over the whole grid, exactly as
// before windowing. TestWindowedKernelMatchesFullGrid requires the windowed
// build to reproduce it bit for bit.

// expandFullGrid is expand without windows (and without the frontier mode,
// which only reorders work).
func (b *builder) expandFullGrid(n *Node, c []float64, remaining []int, k int) error {
	g := b.t.grid
	gl := g.Len()
	s := b.scratchAt(n.depth, len(remaining))

	for i := 0; i < gl; i++ {
		s.prefixProd[0][i] = 1
		s.suffixProd[len(remaining)][i] = 1
	}
	for ri, id := range remaining {
		cdf := b.t.cdfs[id]
		pp, prev := s.prefixProd[ri+1], s.prefixProd[ri]
		for i := 0; i < gl; i++ {
			pp[i] = prev[i] * cdf[i]
		}
	}
	for ri := len(remaining) - 1; ri >= 0; ri-- {
		cdf := b.t.cdfs[remaining[ri]]
		sp, next := s.suffixProd[ri], s.suffixProd[ri+1]
		for i := 0; i < gl; i++ {
			sp[i] = next[i] * cdf[i]
		}
	}

	maxLo1, maxLo2, loOwner := topTwo(remaining, math.Inf(-1), func(id int) float64 {
		lo, _ := b.t.Dists[id].Support()
		return lo
	})
	for ri, id := range remaining {
		_, hi := b.t.Dists[id].Support()
		bound := maxLo1
		if id == loOwner {
			bound = maxLo2
		}
		if hi <= bound {
			continue
		}
		pdf := b.t.pdfs[id]
		for i := 0; i < gl; i++ {
			s.integrand[i] = pdf[i] * c[i] * s.prefixProd[ri][i] * s.suffixProd[ri+1][i]
		}
		p := g.Trapezoid(s.integrand)
		if p <= b.opt.ProbEpsilon {
			continue
		}
		child := &Node{Tuple: id, Prob: p, depth: n.depth + 1}
		n.Children = append(n.Children, child)
		if child.depth == k {
			continue
		}
		childC := s.childC
		for i := 0; i < gl; i++ {
			childC[i] = pdf[i] * c[i]
		}
		g.CumTrapezoidRight(childC, childC)
		if err := b.expandFullGrid(child, childC, excluding(nil, remaining, ri), k); err != nil {
			return err
		}
	}
	return nil
}

// childrenOfFullGrid is childrenOf with the full-grid chain rebuild and
// kernel. It reports whether the thresholdless retry ran.
func (b *builder) childrenOfFullGrid(path rank.Ordering, parentPosterior float64) ([]*Node, bool, error) {
	g := b.t.grid
	gl := g.Len()
	c := make([]float64, gl)
	for i := range c {
		c[i] = 1
	}
	for _, id := range path {
		pdf := b.t.pdfs[id]
		for i := 0; i < gl; i++ {
			c[i] *= pdf[i]
		}
		g.CumTrapezoidRight(c, c)
	}
	inPath := make(map[int]bool, len(path))
	for _, id := range path {
		inPath[id] = true
	}
	remaining := make([]int, 0, len(b.t.Dists)-len(path))
	for id := range b.t.Dists {
		if !inPath[id] {
			remaining = append(remaining, id)
		}
	}
	parent := &Node{Tuple: -1, Prob: parentPosterior, depth: len(path)}
	if err := b.expandFullGrid(parent, c, remaining, len(path)+1); err != nil {
		return nil, false, err
	}
	retried := len(parent.Children) == 0
	if retried {
		noEps := fullGridBuilder(b.t)
		noEps.opt.ProbEpsilon = 1e-300
		if err := noEps.expandFullGrid(parent, c, remaining, len(path)+1); err != nil {
			return nil, true, err
		}
	}
	raw := 0.0
	for _, ch := range parent.Children {
		raw += ch.Prob
	}
	if raw <= 0 {
		return nil, retried, fmt.Errorf("%w: prefix %v admits no extension", ErrContradiction, path)
	}
	for _, ch := range parent.Children {
		ch.Prob = parentPosterior * ch.Prob / raw
	}
	return parent.Children, retried, nil
}

// fullGridBuilder returns a builder with private, unpooled scratch.
func fullGridBuilder(t *Tree) *builder {
	return &builder{t: t, opt: t.opt, leaves: new(atomic.Int64), scratch: &scratch{}}
}

// buildFullGrid is Build on the full-grid kernel.
func buildFullGrid(ds []dist.Distribution, k int, opt BuildOptions) (*Tree, error) {
	t, err := prepare(ds, k, opt, nil)
	if err != nil {
		return nil, err
	}
	t.opt = opt.withDefaults()
	c0 := make([]float64, t.grid.Len())
	for i := range c0 {
		c0[i] = 1
	}
	if err := fullGridBuilder(t).expandFullGrid(t.Root, c0, allRemaining(len(ds)), k); err != nil {
		return nil, err
	}
	t.depth = k
	t.buildMass = t.LeafMass()
	if err := t.renormalize(); err != nil {
		return nil, err
	}
	return t, nil
}

// incrementalFullGrid is StartIncremental followed by Extend up to depth K,
// on the full-grid kernel. It returns the number of thresholdless retries.
func incrementalFullGrid(ds []dist.Distribution, k int, opt BuildOptions) (*Tree, int, error) {
	t, err := prepare(ds, k, opt, nil)
	if err != nil {
		return nil, 0, err
	}
	t.opt = opt.withDefaults()
	retries := 0
	for t.depth < k {
		type job struct {
			leaf *Node
			path rank.Ordering
		}
		jobs := []job{{t.Root, rank.Ordering{}}}
		if t.depth > 0 {
			jobs = jobs[:0]
			t.walkLeaves(func(n *Node, path rank.Ordering) {
				jobs = append(jobs, job{n, path.Clone()})
			})
		}
		b := fullGridBuilder(t)
		staged := make([][]*Node, len(jobs))
		for i, j := range jobs {
			children, retried, err := b.childrenOfFullGrid(j.path, j.leaf.Prob)
			if err != nil {
				return nil, 0, err
			}
			if retried {
				retries++
			}
			staged[i] = children
		}
		for i, children := range staged {
			jobs[i].leaf.Children = children
		}
		t.depth++
		if err := t.renormalize(); err != nil {
			return nil, 0, err
		}
	}
	return t, retries, nil
}

// oracleDataset draws n scores of the given family around centers 0.5
// apart (jittered by up to ±0.25) with supports `width` wide.
// Piecewise-uniform scores get four bins whose outer weights are sometimes
// zero, so their first and last nonzero PDF samples sit inside the support.
func oracleDataset(t *testing.T, family string, n int, width float64, seed int64) []dist.Distribution {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := make([]dist.Distribution, n)
	for i := range ds {
		c := float64(i)*0.5 + (rng.Float64()*2-1)*0.25
		lo, hi := c-width/2, c+width/2
		var d dist.Distribution
		var err error
		switch family {
		case "uniform":
			d, err = dist.NewUniform(lo, hi)
		case "gaussian":
			d, err = dist.NewGaussian(c, width/8)
		case "triangular":
			d, err = dist.NewTriangular(lo, c+(rng.Float64()*2-1)*width/4, hi)
		case "piecewise":
			w := []float64{rng.Float64(), 0.2 + rng.Float64(), 0.2 + rng.Float64(), rng.Float64()}
			if rng.Intn(2) == 0 {
				w[0] = 0
			}
			if rng.Intn(2) == 0 {
				w[3] = 0
			}
			d, err = dist.NewPiecewiseUniform([]float64{lo, lo + width/4, c, hi - width/4, hi}, w)
		default:
			t.Fatalf("unknown family %q", family)
		}
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	return ds
}

// TestWindowedKernelMatchesFullGrid pins the windowed kernel's exactness:
// for every family, size, width, seed and K, Build and StartIncremental +
// Extend produce the full-grid kernel's tree node for node and bit for bit
// (and the same BuildMass), with one and with two workers.
func TestWindowedKernelMatchesFullGrid(t *testing.T) {
	shapes := []struct {
		n     int
		width float64
	}{{8, 1}, {8, 3.2}, {12, 2}, {16, 1.5}, {16, 3.2}, {24, 1}, {24, 2.4}, {24, 3.2}}
	retries := 0
	for _, family := range []string{"uniform", "gaussian", "triangular", "piecewise"} {
		for _, sh := range shapes {
			for seed := int64(1); seed <= 3; seed++ {
				for _, k := range []int{3, 5} {
					ds := oracleDataset(t, family, sh.n, sh.width, seed)
					name := fmt.Sprintf("%s/N=%d/width=%g/seed=%d/K=%d", family, sh.n, sh.width, seed, k)
					retries += checkAgainstFullGrid(t, name, ds, k, BuildOptions{GridSize: 256})
				}
			}
		}
	}
	// The serving benchmark's catalog shape on the default grid.
	catalog := oracleDataset(t, "uniform", 24, 3, 1)
	retries += checkAgainstFullGrid(t, "catalog", catalog, 5, BuildOptions{})
	// A coarse threshold makes whole prefixes fall below it, so Extend's
	// thresholdless retry runs.
	retries += checkAgainstFullGrid(t, "eps=1e-3", oracleDataset(t, "gaussian", 12, 2, 1), 4, BuildOptions{GridSize: 256, ProbEpsilon: 1e-3})
	if retries == 0 {
		t.Error("no case exercised Extend's thresholdless retry")
	}
}

// checkAgainstFullGrid compares Build and StartIncremental + Extend against
// the full-grid oracle at Workers 1 and 2, and returns the oracle's
// thresholdless-retry count.
func checkAgainstFullGrid(t *testing.T, name string, ds []dist.Distribution, k int, opt BuildOptions) int {
	t.Helper()
	opt.Workers = 1
	want, err := buildFullGrid(ds, k, opt)
	if err != nil {
		t.Fatalf("%s: full-grid build: %v", name, err)
	}
	wantIncr, retries, err := incrementalFullGrid(ds, k, opt)
	if err != nil {
		t.Fatalf("%s: full-grid incremental: %v", name, err)
	}
	for _, workers := range []int{1, 2} {
		opt.Workers = workers
		got, err := Build(ds, k, opt)
		if err != nil {
			t.Fatalf("%s/workers=%d: Build: %v", name, workers, err)
		}
		if treeFingerprint(got) != treeFingerprint(want) {
			t.Errorf("%s/workers=%d: Build differs from the full-grid kernel", name, workers)
		}
		if got.BuildMass() != want.BuildMass() {
			t.Errorf("%s/workers=%d: BuildMass %x, full grid %x", name, workers, got.BuildMass(), want.BuildMass())
		}
		incr, err := StartIncremental(ds, k, opt)
		if err != nil {
			t.Fatalf("%s/workers=%d: StartIncremental: %v", name, workers, err)
		}
		for incr.Depth() < k {
			if err := incr.Extend(); err != nil {
				t.Fatalf("%s/workers=%d: Extend: %v", name, workers, err)
			}
		}
		if treeFingerprint(incr) != treeFingerprint(wantIncr) {
			t.Errorf("%s/workers=%d: Extend differs from the full-grid kernel", name, workers)
		}
	}
	return retries
}

// TestWindowBoundsAreExact checks the sampled windows against the arrays
// they bound, including PDFs whose outer bins carry no mass.
func TestWindowBoundsAreExact(t *testing.T) {
	for _, family := range []string{"uniform", "gaussian", "triangular", "piecewise"} {
		ds := oracleDataset(t, family, 8, 2, 3)
		tr, err := prepare(ds, 3, BuildOptions{GridSize: 256}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for id, w := range tr.wins {
			pdf, cdf := tr.pdfs[id], tr.cdfs[id]
			if w.pdfLo > w.pdfHi || pdf[w.pdfLo] == 0 || pdf[w.pdfHi] == 0 || cdf[w.cdfLo] == 0 {
				t.Fatalf("%s tuple %d: window %+v does not start and end on nonzero samples", family, id, w)
			}
			for i := range pdf {
				if (i < w.pdfLo || i > w.pdfHi) && pdf[i] != 0 {
					t.Fatalf("%s tuple %d: pdf[%d] = %g outside window %+v", family, id, i, pdf[i], w)
				}
				if i < w.cdfLo && cdf[i] != 0 {
					t.Fatalf("%s tuple %d: cdf[%d] = %g below window %+v", family, id, i, cdf[i], w)
				}
			}
		}
	}
}

// TestPooledScratchAcrossGoroutines runs builds on two grid lengths from
// several goroutines at once, so pooled scratch and sample buffers pass
// between goroutines and between grid lengths; every tree must still equal
// the one built alone.
func TestPooledScratchAcrossGoroutines(t *testing.T) {
	type job struct {
		ds   []dist.Distribution
		opt  BuildOptions
		want string
	}
	var jobs []job
	for i, grid := range []int{256, 384, 256, 384} {
		ds := oracleDataset(t, "uniform", 10+2*i, 2.4, int64(i+1))
		opt := BuildOptions{GridSize: grid, Workers: 1 + i%2}
		want, err := buildFullGrid(ds, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{ds, opt, treeFingerprint(want)})
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := Build(j.ds, 4, j.opt)
				if err != nil {
					t.Error(err)
					return
				}
				if treeFingerprint(got) != j.want {
					t.Errorf("grid %d: concurrent build differs from the full-grid kernel", j.opt.GridSize)
				}
			}
		}(j)
	}
	wg.Wait()
}
