package tpo

import (
	"errors"
	"fmt"
	"sort"

	"crowdtopk/internal/dist"
	"crowdtopk/internal/numeric"
	"crowdtopk/internal/pcache"
	"crowdtopk/internal/rank"
)

// Errors reported by tree operations.
var (
	// ErrTooLarge reports that construction would exceed the configured
	// leaf budget; callers should reduce K, reduce overlap, or use the
	// incremental build.
	ErrTooLarge = errors.New("tpo: tree exceeds configured size limit")
	// ErrContradiction reports that an answer (applied with full trust)
	// eliminated every ordering in the tree.
	ErrContradiction = errors.New("tpo: answer contradicts all remaining orderings")
	// ErrInvalidInput reports unusable construction inputs.
	ErrInvalidInput = errors.New("tpo: invalid input")
)

// Node is a TPO node: the tuple it places at its depth, the (posterior)
// probability mass of the prefix ordering it terminates, and its children.
// The root carries Tuple = -1 and probability 1.
type Node struct {
	Tuple    int
	Prob     float64
	Children []*Node
	depth    int
}

// Depth returns the node's depth (root = 0; depth-d nodes fix the first d
// ranks).
func (n *Node) Depth() int { return n.depth }

// Tree is a tree of possible orderings truncated at depth K, together with
// the score model it was built from and the shared evaluation grid.
type Tree struct {
	Root  *Node
	K     int
	Dists []dist.Distribution

	grid *numeric.Grid
	pdfs [][]float64    // per-tuple PDF samples on grid; nil after Build
	cdfs [][]float64    // per-tuple CDF samples on grid; nil after Build
	wins []sampleWindow // per-tuple nonzero bounds of pdfs and cdfs

	depth     int          // current construction depth (== K after a full Build)
	buildMass float64      // unnormalized mass found by Build, ≈1
	opt       BuildOptions // options carried over to incremental Extend calls
}

// Depth returns the depth the tree is currently materialized to. It equals K
// after a full Build and grows during incremental construction.
func (t *Tree) Depth() int { return t.depth }

// Grid exposes the shared evaluation grid (for diagnostics and tests).
func (t *Tree) Grid() *numeric.Grid { return t.grid }

// SetWorkers adjusts the goroutine count used by subsequent Extend calls.
// The extended tree is identical for every value; the serving layer uses
// this to run each extension with whatever share of a process-wide worker
// budget is currently free. n < 1 selects GOMAXPROCS.
func (t *Tree) SetWorkers(n int) {
	if n < 0 {
		n = 0 // withDefaults maps 0 (not negatives) to GOMAXPROCS
	}
	t.opt.Workers = n
}

// NumLeaves returns the number of depth-Depth() leaves.
func (t *Tree) NumLeaves() int {
	n := 0
	t.walkLeaves(func(*Node, rank.Ordering) { n++ })
	return n
}

// NumNodes returns the total node count excluding the root.
func (t *Tree) NumNodes() int {
	n := -1 // uncount the root
	var rec func(*Node)
	rec = func(nd *Node) {
		n++
		for _, c := range nd.Children {
			rec(c)
		}
	}
	rec(t.Root)
	return n
}

// walkLeaves invokes fn for every node at the current construction depth,
// passing the path (prefix ordering) leading to it. The path slice is reused
// between calls; fn must copy it to retain it.
func (t *Tree) walkLeaves(fn func(leaf *Node, path rank.Ordering)) {
	t.anyLeaf(func(n *Node, path rank.Ordering) bool {
		fn(n, path)
		return false
	})
}

// anyLeaf walks the leaves as walkLeaves does and stops at the first one
// for which pred is true, reporting whether there was one.
func (t *Tree) anyLeaf(pred func(leaf *Node, path rank.Ordering) bool) bool {
	path := make(rank.Ordering, 0, t.depth)
	var rec func(n *Node) bool
	rec = func(n *Node) bool {
		if n.depth == t.depth {
			return n != t.Root && pred(n, path)
		}
		for _, c := range n.Children {
			path = append(path, c.Tuple)
			found := rec(c)
			path = path[:len(path)-1]
			if found {
				return true
			}
		}
		return false
	}
	return rec(t.Root)
}

// LeafSet is the flat view of a tree's leaves: the possible top-K prefix
// orderings and their normalized probabilities. All uncertainty measures and
// question-selection strategies operate on this view, which makes what-if
// evaluation (pruning under hypothetical answers) cheap array filtering
// rather than tree surgery.
type LeafSet struct {
	K     int
	Paths []rank.Ordering
	W     []float64

	// flat is the contiguous path backing when the set was snapshotted from
	// a tree: Paths[i] aliases flat[i*K : (i+1)*K]. Derived sets (Clone,
	// deserialization) leave it nil. See Flat.
	flat []int
}

// LeafSet snapshots the tree's current leaves. Paths are copies laid out in
// one contiguous backing array (one allocation instead of one per leaf);
// mutating the result does not affect the tree.
func (t *Tree) LeafSet() *LeafSet {
	ls := &LeafSet{K: t.depth}
	n := 0
	t.walkLeaves(func(*Node, rank.Ordering) { n++ })
	ls.flat = make([]int, 0, n*t.depth)
	ls.Paths = make([]rank.Ordering, 0, n)
	ls.W = make([]float64, 0, n)
	t.walkLeaves(func(nd *Node, path rank.Ordering) {
		ls.flat = append(ls.flat, path...)
		ls.W = append(ls.W, nd.Prob)
	})
	for i := 0; i < n; i++ {
		ls.Paths = append(ls.Paths, rank.Ordering(ls.flat[i*t.depth:(i+1)*t.depth:(i+1)*t.depth]))
	}
	numeric.Normalize(ls.W)
	return ls
}

// Flat exposes the arena layout of the leaf set: all paths of length K
// back to back in one array, leaf i occupying flat[i*K : (i+1)*K]. ok is
// false when the set was not snapshotted from a tree (derived or hand-built
// sets), in which case callers flatten it themselves. The returned
// slice is shared with Paths and must not be mutated.
func (ls *LeafSet) Flat() (flat []int, ok bool) {
	if ls.flat == nil || len(ls.flat) != len(ls.Paths)*ls.K {
		return nil, false
	}
	return ls.flat, true
}

// Len returns the number of leaves.
func (ls *LeafSet) Len() int { return len(ls.Paths) }

// Clone deep-copies the leaf set.
func (ls *LeafSet) Clone() *LeafSet {
	out := &LeafSet{
		K:     ls.K,
		Paths: make([]rank.Ordering, len(ls.Paths)),
		W:     append([]float64(nil), ls.W...),
	}
	for i, p := range ls.Paths {
		out.Paths[i] = p.Clone()
	}
	return out
}

// Tuples returns the sorted set of tuple ids appearing in any leaf path.
func (ls *LeafSet) Tuples() []int {
	return rank.Union(ls.Paths...)
}

// MostProbable returns the index of the highest-weight leaf (first on ties).
// It panics on an empty set.
func (ls *LeafSet) MostProbable() int {
	i, _ := numeric.ArgMax(ls.W)
	return i
}

// Entropy returns the Shannon entropy (bits) of the leaf distribution.
func (ls *LeafSet) Entropy() float64 { return numeric.EntropyBits(ls.W) }

// Tuples returns the sorted tuple ids present in the materialized tree.
func (t *Tree) Tuples() []int {
	seen := map[int]struct{}{}
	var rec func(n *Node)
	rec = func(n *Node) {
		if n != t.Root {
			seen[n.Tuple] = struct{}{}
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// ProbGreater returns Pr(s_i > s_j) from the score model, memoized in the
// process-wide pairwise cache (internal/pcache) so concurrent trials and
// repeated selection sweeps over the same dataset do not re-integrate a pair
// while it stays in the cache's bounded working set.
// It is the π_ij used to split undetermined leaves when computing answer
// probabilities. The canonical (i < j) orientation is the one computed;
// flipped queries return the complement, as before the cache existed.
func (t *Tree) ProbGreater(i, j int) float64 {
	if i == j {
		return 0.5
	}
	if i > j {
		return 1 - pcache.ProbGreater(t.Dists[j], t.Dists[i])
	}
	return pcache.ProbGreater(t.Dists[i], t.Dists[j])
}

// Clone deep-copies the tree structure. The score model, grid and cached
// samples are shared (they are immutable after construction).
func (t *Tree) Clone() *Tree {
	nt := &Tree{
		K:         t.K,
		Dists:     t.Dists,
		grid:      t.grid,
		pdfs:      t.pdfs,
		cdfs:      t.cdfs,
		wins:      t.wins,
		depth:     t.depth,
		buildMass: t.buildMass,
		opt:       t.opt,
	}
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		cp := &Node{Tuple: n.Tuple, Prob: n.Prob, depth: n.depth}
		if len(n.Children) > 0 {
			cp.Children = make([]*Node, len(n.Children))
			for i, c := range n.Children {
				cp.Children[i] = rec(c)
			}
		}
		return cp
	}
	nt.Root = rec(t.Root)
	return nt
}

// renormalize rescales all leaf probabilities to sum to one and recomputes
// internal node probabilities as the sum of their children, dropping
// zero-probability subtrees. It returns ErrContradiction if no mass remains.
func (t *Tree) renormalize() error {
	total := 0.0
	t.walkLeaves(func(n *Node, _ rank.Ordering) { total += n.Prob })
	if total <= 0 {
		return ErrContradiction
	}
	var rec func(n *Node) float64
	rec = func(n *Node) float64 {
		if n.depth == t.depth {
			n.Prob /= total
			return n.Prob
		}
		sum := 0.0
		kept := n.Children[:0]
		for _, c := range n.Children {
			m := rec(c)
			if m > 0 {
				sum += m
				kept = append(kept, c)
			}
		}
		n.Children = kept
		n.Prob = sum
		return sum
	}
	rec(t.Root)
	t.Root.Prob = 1
	return nil
}

// Validate checks structural invariants: node depths, children probability
// conservation, and leaf normalization. Intended for tests and debugging.
func (t *Tree) Validate() error {
	var leafSum float64
	var rec func(n *Node) error
	rec = func(n *Node) error {
		for _, c := range n.Children {
			if c.depth != n.depth+1 {
				return fmt.Errorf("tpo: child depth %d under parent depth %d", c.depth, n.depth)
			}
			if err := rec(c); err != nil {
				return err
			}
		}
		if n.depth == t.depth && n != t.Root {
			if n.Prob < 0 {
				return fmt.Errorf("tpo: negative leaf probability %g", n.Prob)
			}
			leafSum += n.Prob
		}
		if n.depth < t.depth && len(n.Children) > 0 {
			sum := 0.0
			for _, c := range n.Children {
				sum += c.Prob
			}
			if !numeric.AlmostEqual(sum, n.Prob, 1e-6) {
				return fmt.Errorf("tpo: node prob %g != children sum %g at depth %d", n.Prob, sum, n.depth)
			}
		}
		return nil
	}
	if err := rec(t.Root); err != nil {
		return err
	}
	if t.NumLeaves() > 0 && !numeric.AlmostEqual(leafSum, 1, 1e-6) {
		return fmt.Errorf("tpo: leaf probabilities sum to %g", leafSum)
	}
	return nil
}
