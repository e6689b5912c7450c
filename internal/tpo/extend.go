package tpo

import (
	"fmt"
	"sync/atomic"

	"crowdtopk/internal/dist"
	"crowdtopk/internal/par"
	"crowdtopk/internal/rank"
)

// StartIncremental prepares a depth-1 tree for the incr algorithm of §III.D:
// the TPO is materialized one level at a time (Extend), alternating with
// question rounds and pruning, instead of paying the full depth-K
// construction up front.
func StartIncremental(ds []dist.Distribution, k int, opt BuildOptions) (*Tree, error) {
	t, err := prepare(ds, k, opt, nil)
	if err != nil {
		return nil, err
	}
	t.opt = opt.withDefaults()
	if err := t.Extend(); err != nil {
		return nil, err
	}
	return t, nil
}

// Extend materializes one more level of the tree, splitting each current
// leaf's posterior probability among its children in proportion to the exact
// prefix-extension probabilities. It returns ErrTooLarge when the new level
// would exceed the leaf budget and leaves the tree unchanged in that case,
// and ErrInvalidInput once the tree is already at depth K.
//
// Leaves grow concurrently when opt.Workers permits: each leaf's children
// are an independent job (the survival chain is rebuilt from its path, so
// jobs share only the immutable grid samples and the leaf budget), and the
// staged results are attached in leaf order, making the extended tree
// identical for every worker count.
func (t *Tree) Extend() error {
	if t.depth >= t.K {
		return fmt.Errorf("%w: tree already at depth %d = K", ErrInvalidInput, t.depth)
	}
	opt := t.opt.withDefaults()

	type job struct {
		leaf *Node
		path rank.Ordering
	}
	var jobs []job
	if t.depth == 0 {
		jobs = append(jobs, job{t.Root, rank.Ordering{}})
	} else {
		t.walkLeaves(func(n *Node, path rank.Ordering) {
			jobs = append(jobs, job{n, path.Clone()})
		})
	}

	// Children are staged per leaf and only attached once every job
	// succeeded, so a failed extension leaves the tree unchanged.
	staged := make([][]*Node, len(jobs))
	leaves := new(atomic.Int64)
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	builders := make([]*builder, workers)
	errs := par.For(len(jobs), workers, func(w, i int) error {
		if builders[w] == nil {
			builders[w] = newBuilder(t, opt, leaves)
		}
		var err error
		staged[i], err = builders[w].childrenOf(jobs[i].path, jobs[i].leaf.Prob)
		return err
	})
	releaseAll(builders)
	if err := par.FirstError(errs); err != nil {
		return err
	}
	for i, children := range staged {
		jobs[i].leaf.Children = children
	}
	t.depth++
	return t.renormalize()
}

// childrenOf computes the children of the prefix `path`, assigning them the
// parent's posterior mass split by the relative raw extension probabilities.
// The survival chain C is rebuilt by walking the path from the root, so the
// method works on pruned and reweighted trees whose stored chains are gone.
// The rebuild is windowed like expand's chains: each step evaluates only
// where f_id·C can be nonzero.
func (b *builder) childrenOf(path rank.Ordering, parentPosterior float64) ([]*Node, error) {
	t := b.t
	gl := t.grid.Len()
	if len(b.chain) != gl {
		b.chain = make([]float64, gl)
	}
	c := unitChain(gl)
	inPath := make([]bool, len(t.Dists))
	for _, id := range path {
		w := t.wins[id]
		c = chainInto(t.grid, b.chain, t.pdfs[id], c, w.pdfLo, min(w.pdfHi, c.top))
		inPath[id] = true
	}
	remaining := make([]int, 0, len(t.Dists)-len(path))
	for id, in := range inPath {
		if !in {
			remaining = append(remaining, id)
		}
	}

	parent := &Node{Tuple: -1, Prob: parentPosterior, depth: len(path)}
	// expand with k = depth+1 materializes exactly one level.
	if err := b.expand(parent, c, remaining, len(path)+1, nil); err != nil {
		return nil, err
	}
	if len(parent.Children) == 0 {
		// Every extension fell below ProbEpsilon: the prefix itself carries
		// tiny raw mass, so its children's absolute masses vanish even
		// though they must sum to the parent's. Retry thresholdless (same
		// tree, same shared leaf budget) — the relative split is what
		// matters here.
		eps := b.opt.ProbEpsilon
		b.opt.ProbEpsilon = 1e-300
		err := b.expand(parent, c, remaining, len(path)+1, nil)
		b.opt.ProbEpsilon = eps
		if err != nil {
			return nil, err
		}
	}
	raw := 0.0
	for _, ch := range parent.Children {
		raw += ch.Prob
	}
	if raw <= 0 {
		return nil, fmt.Errorf("%w: prefix %v admits no extension", ErrContradiction, path)
	}
	for _, ch := range parent.Children {
		ch.Prob = parentPosterior * ch.Prob / raw
	}
	return parent.Children, nil
}
