package selection

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"crowdtopk/internal/numeric"
	"crowdtopk/internal/par"
	"crowdtopk/internal/tpo"
	"crowdtopk/internal/uncertainty"
)

// Errors reported by strategies.
var (
	// ErrNoQuestions reports that the relevant question set Q_K is empty —
	// the tree already holds a single ordering (or none of the remaining
	// pairs can be pruned by any answer).
	ErrNoQuestions = errors.New("selection: no relevant questions remain")
	// ErrSearchBudget reports that A* exceeded its expansion budget.
	ErrSearchBudget = errors.New("selection: search expansion budget exceeded")
)

// DefaultBranchEpsilon is the probability mass below which a hypothetical
// answer branch is dropped during expected-residual recursion. Branches this
// unlikely contribute less than the quadrature error of the tree itself.
const DefaultBranchEpsilon = 1e-9

// Context bundles the inputs every strategy needs: the tree (for the
// pairwise score probabilities π_ij used to split undetermined leaves), the
// uncertainty measure being minimized, and numerical knobs.
type Context struct {
	Tree    *tpo.Tree
	Measure uncertainty.Measure
	// PairProb overrides the source of π_ij = Pr(s_i > s_j); when nil the
	// tree's score model is consulted. Exposed for tests and for callers
	// evaluating crafted leaf sets without a backing tree.
	PairProb func(i, j int) float64
	// BranchEpsilon prunes negligible answer branches in the residual
	// recursion; zero selects DefaultBranchEpsilon.
	BranchEpsilon float64
	// MaxExpansions caps the number of states the A* strategies may pop;
	// zero selects DefaultMaxExpansions.
	MaxExpansions int
	// Workers caps the goroutines the expected-residual sweeps
	// (QuestionResiduals and the C-off candidate loop) fan candidate
	// questions across. 0 and 1 run sequentially; negative selects
	// GOMAXPROCS. Results are identical for every value: each candidate's
	// residual lands in its own slot.
	Workers int
	// Pool optionally draws the sweep parallelism from a shared worker
	// budget instead (the serving layer's process-wide pool): up to Workers
	// slots are claimed for a sweep's duration, or the pool's free share
	// when Workers <= 0.
	Pool *par.Budget
	// Live optionally carries a session's live engine: strategies then
	// reuse the residual engine it holds, reconciled with the leaf set they
	// were handed, instead of rebuilding the consistency index from
	// scratch, and attach fresh builds to it for later rounds. nil keeps
	// the stateless build-per-call behavior.
	Live *LiveEngine

	// pim caches the dense pairwise-probability matrix for the tuples in
	// play (see piMatrix). Lazily built by the residual engine; not for
	// concurrent mutation — engines are constructed single-threaded and
	// workers only read.
	pim *piMatrix
}

// pairProb resolves π_ij from the override, the dense matrix, or the tree.
func (c *Context) pairProb(i, j int) float64 {
	if c.PairProb != nil {
		return c.PairProb(i, j)
	}
	if c.pim != nil {
		if v, ok := c.pim.lookup(i, j); ok {
			return v
		}
	}
	return c.Tree.ProbGreater(i, j)
}

// piMatrix is the dense per-tree π matrix: π for every ordered pair of the
// tuples in play, resolved once per sweep so the inner loops index an array
// instead of hitting the process-global pairwise cache per lookup.
type piMatrix struct {
	tuples []int
	tidx   map[int]int32
	p      []float64 // row-major T×T; p[i*T+j] = π(tuples[i], tuples[j])
}

// piMatrix returns the context's dense matrix for the given sorted tuple
// set, building it on first use (or when the tuple set changed — trees
// shrink as answers prune them).
func (c *Context) piMatrix(tuples []int) *piMatrix {
	if c.pim != nil && equalInts(c.pim.tuples, tuples) {
		return c.pim
	}
	t := len(tuples)
	m := &piMatrix{
		tuples: append([]int(nil), tuples...),
		tidx:   make(map[int]int32, t),
		p:      make([]float64, t*t),
	}
	for i, id := range m.tuples {
		m.tidx[id] = int32(i)
	}
	src := func(i, j int) float64 {
		if c.PairProb != nil {
			return c.PairProb(i, j)
		}
		return c.Tree.ProbGreater(i, j)
	}
	for i := 0; i < t; i++ {
		m.p[i*t+i] = 0.5
		for j := i + 1; j < t; j++ {
			v := src(tuples[i], tuples[j])
			m.p[i*t+j] = v
			m.p[j*t+i] = 1 - v
		}
	}
	c.pim = m
	return m
}

// at returns π for dense tuple indices (i, j).
func (m *piMatrix) at(i, j int) float64 { return m.p[i*len(m.tuples)+j] }

// lookup returns π for original tuple ids when both are in the matrix.
func (m *piMatrix) lookup(i, j int) (float64, bool) {
	di, ok := m.tidx[i]
	if !ok {
		return 0, false
	}
	dj, ok := m.tidx[j]
	if !ok {
		return 0, false
	}
	return m.at(int(di), int(dj)), true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sweepWorkers resolves the parallelism a sweep over n candidates may use
// right now and returns it with a release function for the pool share (a
// no-op when no pool is configured). The pool acquisition is clamped to n
// up front so a small sweep never reserves shared slots it cannot use.
func (c *Context) sweepWorkers(n int) (int, func()) {
	if n < 1 {
		n = 1
	}
	if c.Pool != nil {
		want := c.Workers
		if want < 1 || want > n {
			want = n
		}
		got := c.Pool.Acquire(want)
		return got, func() { c.Pool.Release(got) }
	}
	w := c.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	return w, func() {}
}

// DefaultMaxExpansions bounds A* search work.
const DefaultMaxExpansions = 200_000

func (c *Context) branchEpsilon() float64 {
	if c.BranchEpsilon == 0 {
		return DefaultBranchEpsilon
	}
	return c.BranchEpsilon
}

func (c *Context) maxExpansions() int {
	if c.MaxExpansions == 0 {
		return DefaultMaxExpansions
	}
	return c.MaxExpansions
}

// ExpectedResidual computes R_Q(T_K): the expected uncertainty of the leaf
// set after asking every question in qs and pruning by the (probabilistic)
// answers. The expectation recursively partitions the leaf set by each
// question; undetermined leaves flow into both branches weighted by π_ij.
// Branches whose probability falls below BranchEpsilon, and branches already
// reduced to a single ordering, terminate early.
//
// Approximation note: leaves that contain neither tuple of a question carry
// no information about the pair, so hypothetical answers are modelled as
// independent π_ij coin flips for them. Correlations among such answers
// through a shared tuple's score are therefore ignored — exactly the
// information the depth-K state of the TPO does not carry. Strategies never
// select duplicate questions, so the practical effect is limited to slight
// optimism of R over below-top-K pairs.
//
// ls must be normalized (mass 1); the result is in the measure's units.
//
// This is an adapter over the flat ResidualEngine; callers evaluating many
// sequences over one leaf set (the search strategies) construct the engine
// once instead.
func ExpectedResidual(ls *tpo.LeafSet, qs []tpo.Question, ctx *Context) float64 {
	return engineFor(ls, ctx).ExpectedResidual(qs)
}

// QuestionResiduals computes R_q for every relevant question of the leaf
// set, returning the questions and their expected residual uncertainties in
// matching order. This is the workhorse of TB-off and T1-on. Candidates are
// fanned across Context.Workers goroutines (sequential by default).
func QuestionResiduals(ls *tpo.LeafSet, ctx *Context) ([]tpo.Question, []float64) {
	return engineFor(ls, ctx).QuestionResiduals()
}

// ResidualEngine evaluates expected residuals over one leaf-set snapshot:
// the Arena/ConsistencyIndex machinery of cellset.go behind an API shaped
// like the package-level functions. Strategies build one engine per
// selection step (or reuse a session's live one) and evaluate every
// candidate against it. The engine is safe for the package's own parallel
// sweeps (per-worker scratch); exported methods may be called from one
// goroutine at a time.
type ResidualEngine struct {
	ctx   *Context
	arena *Arena
	index *ConsistencyIndex

	rootMass float64 // numeric.Sum over the arena weights, computed once

	mu    sync.Mutex
	extra map[tpo.Question]*extraRow // lazily classified out-of-index questions

	scratch []*evalScratch // per-worker evaluation state
}

type extraRow struct {
	row []byte
	pi  float64
}

// NewResidualEngine snapshots ls for residual evaluation under ctx.
func NewResidualEngine(ls *tpo.LeafSet, ctx *Context) *ResidualEngine {
	a := NewArena(ls)
	return &ResidualEngine{ctx: ctx, arena: a, index: NewConsistencyIndex(a, ctx), rootMass: numeric.Sum(a.w)}
}

// Questions returns Q_K for the snapshot, lexicographically ordered.
func (e *ResidualEngine) Questions() []tpo.Question {
	return e.index.Relevant()
}

// scratchFor returns per-worker evaluation scratch, growing it on demand.
func (e *ResidualEngine) scratchFor(workers int) []*evalScratch {
	for len(e.scratch) < workers {
		e.scratch = append(e.scratch, &evalScratch{})
	}
	return e.scratch
}

// rowFor resolves a question's classification row and π, classifying and
// memoizing questions outside the index (non-canonical callers) on demand.
func (e *ResidualEngine) rowFor(q tpo.Question) ([]byte, float64) {
	if row, pi, ok := e.index.Row(q); ok {
		return row, pi
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if x, ok := e.extra[q]; ok {
		return x.row, x.pi
	}
	row := make([]byte, e.arena.n)
	ansYes := tpo.Answer{Q: q, Yes: true}
	for i, p := range e.arena.paths {
		row[i] = byte(tpo.PathConsistency(p, ansYes))
	}
	x := &extraRow{row: row, pi: e.ctx.pairProb(q.I, q.J)}
	if e.extra == nil {
		e.extra = make(map[tpo.Question]*extraRow)
	}
	e.extra[q] = x
	return x.row, x.pi
}

// QuestionResiduals computes R_q for every question in Q_K, in Q_K order,
// fanning candidates across the context's sweep workers.
func (e *ResidualEngine) QuestionResiduals() ([]tpo.Question, []float64) {
	qs := e.Questions()
	rs := e.Residuals(qs)
	return qs, rs
}

// Residuals computes R_q for each single question of qs (in matching order),
// in parallel.
func (e *ResidualEngine) Residuals(qs []tpo.Question) []float64 {
	rs := make([]float64, len(qs))
	if len(qs) == 0 {
		return rs
	}
	workers, release := e.ctx.sweepWorkers(len(qs))
	defer release()
	scratch := e.scratchFor(workers)
	par.For(len(qs), workers, func(w, i int) error {
		rs[i] = e.rootResidual(qs[i], scratch[w])
		return nil
	})
	return rs
}

// rootResidual is R_q for a single question against the whole arena. For
// indexed questions it evaluates from the precomputed per-class aggregates
// when the measure supports it (O(1) for U_H, one fused dot pass for U_MPO);
// otherwise it splits into the worker's reusable buffers.
func (e *ResidualEngine) rootResidual(q tpo.Question, s *evalScratch) float64 {
	a := e.arena
	eps := e.ctx.branchEpsilon()
	if a.n <= 1 || e.rootMass < eps {
		return 0
	}
	if r, ok := e.index.qrow[q]; ok {
		st := &e.index.stats[r]
		pi := e.index.pi[r]
		switch m := e.ctx.Measure.(type) {
		case uncertainty.Entropy:
			return entropyBranchResidual(st, classConsistent, pi, eps) +
				entropyBranchResidual(st, classInconsistent, 1-pi, eps)
		case uncertainty.MPO:
			return e.mpoRootResidual(int(r), st, pi, m.Penalty, eps)
		}
	}
	row, pi := e.rowFor(q)
	root := cell{w: a.w}
	root.idx = rootIndices(a, s)
	yi, ni, yw, nw := splitCell(&root, row, pi,
		s.yesIdx[:0], s.noIdx[:0], s.yesW[:0], s.noW[:0])
	s.yesIdx, s.noIdx, s.yesW, s.noW = yi, ni, yw, nw // keep grown capacity
	var total numeric.KahanSum
	if len(yi) > 1 {
		if m := numeric.Sum(yw); m >= eps {
			total.Add(m * e.value(s, yi, yw, m))
		}
	}
	if len(ni) > 1 {
		if m := numeric.Sum(nw); m >= eps {
			total.Add(m * e.value(s, ni, nw, m))
		}
	}
	return total.Sum()
}

// entropyBranchResidual is one hypothetical-answer branch's m·H(branch)
// term, computed from aggregates: the branch holds the determined class
// `det` unscaled plus (when piU > 0) the undetermined class scaled by piU,
// and −Σ p·log2 p rearranges to log2(m) − (Σ w'·log2 w')/m with
// Σ w'·log2 w' = Σ wlog_det + piU·Σ wlog_und + piU·log2(piU)·Σ w_und.
func entropyBranchResidual(st *classStats, det byte, piU, eps float64) float64 {
	cnt := int(st.cnt[det])
	m := st.w[det]
	sum := st.wlog[det]
	if piU > 0 {
		cnt += int(st.cnt[classUndetermined])
		uw := st.w[classUndetermined]
		m += piU * uw
		sum += piU*st.wlog[classUndetermined] + piU*math.Log2(piU)*uw
	}
	if cnt <= 1 || m < eps {
		return 0
	}
	h := math.Log2(m) - sum/m
	if h < 0 { // rounding noise on a near-resolved branch
		h = 0
	}
	return m * h
}

// branchArgmax picks the branch's highest-weight leaf (first on ties, as
// numeric.ArgMax): the determined class's maximum against the undetermined
// class's π-scaled maximum.
func branchArgmax(st *classStats, det byte, piU float64) (int32, bool) {
	at := st.maxAt[det]
	v := st.maxW[det]
	if piU > 0 && st.cnt[classUndetermined] > 0 {
		uv := piU * st.maxW[classUndetermined]
		uAt := st.maxAt[classUndetermined]
		if at < 0 || uv > v || (uv == v && uAt < at) {
			at, v = uAt, uv
		}
	}
	return at, at >= 0
}

// mpoRootResidual evaluates both branch terms of R_q under U_MPO: branch
// mass, count and reference leaf come from the aggregates, the expected
// distances from one fused dot pass against the cached per-reference
// normalized-distance rows.
func (e *ResidualEngine) mpoRootResidual(r int, st *classStats, pi, penalty, eps float64) float64 {
	yesCnt := int(st.cnt[classConsistent])
	yesM := st.w[classConsistent]
	if pi > 0 {
		yesCnt += int(st.cnt[classUndetermined])
		yesM += pi * st.w[classUndetermined]
	}
	noCnt := int(st.cnt[classInconsistent])
	noM := st.w[classInconsistent]
	if pi < 1 {
		noCnt += int(st.cnt[classUndetermined])
		noM += (1 - pi) * st.w[classUndetermined]
	}
	yesOK := yesCnt > 1 && yesM >= eps
	noOK := noCnt > 1 && noM >= eps
	if !yesOK && !noOK {
		return 0
	}
	var rY, rN []float64
	if yesOK {
		ref, ok := branchArgmax(st, classConsistent, pi)
		if !ok {
			return math.NaN() // unreachable: yesCnt > 1 implies a leaf
		}
		rY = e.arena.DistRow(ref, penalty)
	}
	if noOK {
		ref, ok := branchArgmax(st, classInconsistent, 1-pi)
		if !ok {
			return math.NaN()
		}
		rN = e.arena.DistRow(ref, penalty)
	}
	row := e.index.class[r*e.arena.n:][:e.arena.n]
	var dotY, dotN numeric.KahanSum
	for i, w := range e.arena.w {
		if w == 0 {
			continue
		}
		switch row[i] {
		case classConsistent:
			if yesOK {
				dotY.Add(w * rY[i])
			}
		case classInconsistent:
			if noOK {
				dotN.Add(w * rN[i])
			}
		default:
			if yesOK && pi > 0 {
				dotY.Add(w * pi * rY[i])
			}
			if noOK && pi < 1 {
				dotN.Add(w * (1 - pi) * rN[i])
			}
		}
	}
	return dotY.Sum() + dotN.Sum()
}

// rootIndices returns the shared identity index vector [0, n) for the arena.
func rootIndices(a *Arena, s *evalScratch) []int32 {
	if cap(s.rootIdx) < a.n {
		s.rootIdx = make([]int32, a.n)
		for i := range s.rootIdx {
			s.rootIdx[i] = int32(i)
		}
	}
	return s.rootIdx[:a.n]
}

// ExpectedResidual computes R_qs over the snapshot — the engine form of the
// package-level function.
func (e *ResidualEngine) ExpectedResidual(qs []tpo.Question) float64 {
	return e.foldCells(e.cellsAfter(qs))
}

// cellsAfter returns the *active* cells of the leaf-set partition induced by
// asking every question in qs: one unnormalized arena cell per
// distinguishable answer combination, with the cell mass equal to that
// combination's probability. Cells already resolved to a single ordering and
// cells below BranchEpsilon are dropped — their residual uncertainty is zero
// (respectively negligible) under every measure, now and after any further
// question, so R_qs == Σ_cells mass(cell)·U(cell normalized) holds exactly
// over the returned cells. Conditional strategies evaluate R_{qs+q} for many
// candidates q by splitting these cells once per candidate instead of
// recursing from scratch.
func (e *ResidualEngine) cellsAfter(qs []tpo.Question) []*cell {
	eps := e.ctx.branchEpsilon()
	cells := make([]*cell, 0, 2)
	if e.arena.n > 1 {
		root := e.arena.rootCell()
		if root.mass >= eps {
			cells = append(cells, root)
		}
	}
	for _, q := range qs {
		cells = e.refine(cells, q)
	}
	return cells
}

// refine advances a partition by one question, dropping resolved and
// negligible cells (see cellsAfter).
func (e *ResidualEngine) refine(cells []*cell, q tpo.Question) []*cell {
	eps := e.ctx.branchEpsilon()
	row, pi := e.rowFor(q)
	next := make([]*cell, 0, 2*len(cells))
	for _, c := range cells {
		yi, ni, yw, nw := splitCell(c, row, pi, nil, nil, nil, nil)
		if len(yi) > 1 {
			if m := numeric.Sum(yw); m >= eps {
				next = append(next, &cell{idx: yi, w: yw, mass: m})
			}
		}
		if len(ni) > 1 {
			if m := numeric.Sum(nw); m >= eps {
				next = append(next, &cell{idx: ni, w: nw, mass: m})
			}
		}
	}
	return next
}

// foldCells folds arena cells into the expected residual uncertainty.
func (e *ResidualEngine) foldCells(cells []*cell) float64 {
	s := e.scratchFor(1)[0]
	var total numeric.KahanSum
	for _, c := range cells {
		total.Add(c.mass * e.value(s, c.idx, c.w, c.mass))
	}
	return total.Sum()
}

// refinedResidual returns the expected residual after extending the partition
// `cells` with one more question — the inner loop of the conditional
// strategies — splitting into the worker's buffers.
func (e *ResidualEngine) refinedResidual(cells []*cell, q tpo.Question, s *evalScratch) float64 {
	eps := e.ctx.branchEpsilon()
	row, pi := e.rowFor(q)
	var total numeric.KahanSum
	for _, c := range cells {
		yi, ni, yw, nw := splitCell(c, row, pi,
			s.yesIdx[:0], s.noIdx[:0], s.yesW[:0], s.noW[:0])
		s.yesIdx, s.noIdx, s.yesW, s.noW = yi, ni, yw, nw
		if len(yi) > 1 {
			if m := numeric.Sum(yw); m >= eps {
				total.Add(m * e.value(s, yi, yw, m))
			}
		}
		if len(ni) > 1 {
			if m := numeric.Sum(nw); m >= eps {
				total.Add(m * e.value(s, ni, nw, m))
			}
		}
	}
	return total.Sum()
}

// refinedResiduals evaluates refinedResidual for every candidate in qs in
// parallel, skipping indices where skip reports true (already-chosen
// questions in C-off); skipped slots return NaN.
func (e *ResidualEngine) refinedResiduals(cells []*cell, qs []tpo.Question, skip func(tpo.Question) bool) []float64 {
	rs := make([]float64, len(qs))
	workers, release := e.ctx.sweepWorkers(len(qs))
	defer release()
	scratch := e.scratchFor(workers)
	par.For(len(qs), workers, func(w, i int) error {
		if skip != nil && skip(qs[i]) {
			rs[i] = math.NaN()
			return nil
		}
		rs[i] = e.refinedResidual(cells, qs[i], scratch[w])
		return nil
	})
	return rs
}

// bestQuestion returns the question with the lowest expected residual,
// breaking ties lexicographically for determinism.
func bestQuestion(qs []tpo.Question, rs []float64) (tpo.Question, float64) {
	best := 0
	for i := 1; i < len(qs); i++ {
		switch {
		case rs[i] < rs[best]-tieEpsilon:
			best = i
		case rs[i] < rs[best]+tieEpsilon && questionLess(qs[i], qs[best]):
			best = i
		}
	}
	return qs[best], rs[best]
}

// tieEpsilon treats residuals this close as equal so floating-point noise
// cannot flip deterministic tie-breaks.
const tieEpsilon = 1e-12

func questionLess(a, b tpo.Question) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// sortQuestions orders questions lexicographically in place (for stable
// outputs across runs).
func sortQuestions(qs []tpo.Question) {
	sort.Slice(qs, func(i, j int) bool { return questionLess(qs[i], qs[j]) })
}

// Offline strategies choose a whole batch of questions before any answer
// arrives (§III.A) — the batch-publication crowdsourcing market model.
type Offline interface {
	// Name identifies the strategy in reports ("TB-off", "C-off", ...).
	Name() string
	// SelectBatch returns up to budget questions for the given tree state.
	// Fewer (possibly zero) questions are returned when Q_K is smaller
	// than the budget.
	SelectBatch(ls *tpo.LeafSet, budget int, ctx *Context) ([]tpo.Question, error)
}

// Online strategies choose one question at a time, seeing every earlier
// answer reflected in the tree (§III.B) — the incremental-publication model.
type Online interface {
	// Name identifies the strategy in reports ("T1-on", "A*-on").
	Name() string
	// NextQuestion returns the next question to ask given the current tree
	// state and the remaining budget. ok is false when no relevant
	// question remains (early termination).
	NextQuestion(ls *tpo.LeafSet, remaining int, ctx *Context) (q tpo.Question, ok bool, err error)
}

// validateBudget normalizes budget handling shared by the strategies.
func validateBudget(budget int) error {
	if budget < 0 {
		return fmt.Errorf("selection: negative budget %d", budget)
	}
	return nil
}
