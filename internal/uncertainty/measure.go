// Package uncertainty implements the paper's four measures of the residual
// uncertainty of a tree of possible orderings T_K (§II): Shannon entropy of
// the leaf distribution (U_H), the level-weighted entropy (U_Hw), and the
// expected distance of the orderings to a representative ordering — the
// Optimal Rank Aggregation (U_ORA) or the Most Probable Ordering (U_MPO).
//
// All measures operate on the flat LeafSet view, vanish exactly when a
// single ordering remains, and grow with both the number of orderings and
// the evenness of their probabilities.
package uncertainty

import (
	"fmt"
	"strings"

	"crowdtopk/internal/numeric"
	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
)

// Measure quantifies the uncertainty of a (normalized) leaf set.
type Measure interface {
	// Name returns the identifier used in CLI flags and reports
	// ("H", "Hw", "ORA", "MPO").
	Name() string
	// Value computes the uncertainty of a normalized leaf set. A set with
	// at most one ordering has uncertainty 0 under every measure.
	Value(ls *tpo.LeafSet) float64
	// ValueView computes the measure over a view in place, without a
	// normalized LeafSet copy, using scratch (which may be nil) for
	// temporary storage. It returns exactly what Value returns on the
	// materialized equivalent, up to floating-point association noise far
	// below selection's tie epsilon.
	ValueView(v View, s *Scratch) float64
	// MaxDropPerQuestion returns an upper bound on how much the expected
	// value of the measure can decrease by asking one binary question, or 0
	// when no such bound is known. It is the admissible-heuristic slope for
	// the A* strategies: entropy-type measures return 1 (one bit).
	MaxDropPerQuestion() float64
}

// New returns the measure with the given name: "H", "Hw", "ORA" or "MPO"
// (case-insensitive).
func New(name string) (Measure, error) {
	switch strings.ToUpper(name) {
	case "H":
		return Entropy{}, nil
	case "HW":
		return NewWeightedEntropy(0), nil
	case "ORA":
		return ORA{Penalty: rank.DefaultPenalty}, nil
	case "ORA-FR":
		return ORA{Penalty: rank.DefaultPenalty, Footrule: true}, nil
	case "MPO":
		return MPO{Penalty: rank.DefaultPenalty}, nil
	default:
		return nil, fmt.Errorf("uncertainty: unknown measure %q (want H, Hw, ORA, ORA-FR or MPO)", name)
	}
}

// Entropy is U_H: the Shannon entropy, in bits, of the leaf (ordering)
// probabilities. It ignores the structure of the tree — the state-of-the-art
// baseline the structure-aware measures are compared against.
type Entropy struct{}

// Name implements Measure.
func (Entropy) Name() string { return "H" }

// Value implements Measure.
func (Entropy) Value(ls *tpo.LeafSet) float64 { return numeric.EntropyBits(ls.W) }

// MaxDropPerQuestion implements Measure: a binary answer carries one bit.
func (Entropy) MaxDropPerQuestion() float64 { return 1 }

// WeightedEntropy is U_Hw: a weighted combination of the entropies of the
// marginal prefix distributions at each of the first K levels of the TPO,
// emphasising uncertainty close to the top of the ranking. Level l receives
// weight proportional to 1/l (normalized), matching the paper's intent that
// earlier ranks matter more; the exact decay is configurable.
type WeightedEntropy struct {
	// Decay maps level l (1-based) to its unnormalized weight. nil selects
	// the default 1/l.
	Decay func(level int) float64
}

// NewWeightedEntropy returns U_Hw with the default 1/l level weights. The
// argument is reserved for future decay parameterisations and is currently
// ignored unless non-zero, in which case weights are l^(-exponent).
func NewWeightedEntropy(exponent float64) WeightedEntropy {
	if exponent == 0 {
		return WeightedEntropy{}
	}
	return WeightedEntropy{Decay: func(l int) float64 {
		w := 1.0
		for i := 0; i < int(exponent); i++ {
			w /= float64(l)
		}
		return w
	}}
}

// Name implements Measure.
func (WeightedEntropy) Name() string { return "Hw" }

// MaxDropPerQuestion implements Measure: each level entropy drops at most
// one bit per binary question and the level weights are normalized.
func (WeightedEntropy) MaxDropPerQuestion() float64 { return 1 }

// Value implements Measure.
func (w WeightedEntropy) Value(ls *tpo.LeafSet) float64 {
	if ls.Len() <= 1 || ls.K == 0 {
		return 0
	}
	decay := w.Decay
	if decay == nil {
		decay = func(l int) float64 { return 1 / float64(l) }
	}
	var totalW, acc float64
	// Entropy of the aggregated prefix distribution at each level.
	for l := 1; l <= ls.K; l++ {
		group := make(map[string]float64, ls.Len())
		for i, p := range ls.Paths {
			group[prefixKey(p, l)] += ls.W[i]
		}
		ws := make([]float64, 0, len(group))
		for _, v := range group {
			ws = append(ws, v)
		}
		wl := decay(l)
		totalW += wl
		acc += wl * numeric.EntropyBits(ws)
	}
	if totalW == 0 {
		return 0
	}
	return acc / totalW
}

func prefixKey(p rank.Ordering, l int) string {
	if l > len(p) {
		l = len(p)
	}
	var b strings.Builder
	for _, id := range p[:l] {
		fmt.Fprintf(&b, "%d,", id)
	}
	return b.String()
}

// ORA is U_ORA: the probability-weighted mean generalized Kendall distance
// of the orderings to the Optimal Rank Aggregation (the Kemeny median of the
// leaf set). Computing it requires a rank aggregation per evaluation, which
// makes it the most expensive measure — matching the paper's cost figures.
type ORA struct {
	// Penalty is the K^(p) undetermined-pair penalty (default 1/2).
	Penalty float64
	// Footrule switches the aggregation from Kemeny (exact up to
	// rank.MaxExactKemeny items, local search beyond) to footrule-optimal
	// aggregation via min-cost assignment — a polynomial-time
	// 2-approximation of the Kemeny median that scales to trees with many
	// distinct tuples.
	Footrule bool
}

// Name implements Measure.
func (o ORA) Name() string {
	if o.Footrule {
		return "ORA-FR"
	}
	return "ORA"
}

// MaxDropPerQuestion implements Measure: no admissible per-question bound is
// known for distance-based measures.
func (ORA) MaxDropPerQuestion() float64 { return 0 }

// Value implements Measure.
func (o ORA) Value(ls *tpo.LeafSet) float64 {
	if ls.Len() <= 1 {
		return 0
	}
	var agg rank.Ordering
	var err error
	if o.Footrule {
		agg, err = rank.FootruleAggregate(ls.Paths, ls.W)
	} else {
		agg, err = rank.Aggregate(ls.Paths, ls.W)
	}
	if err != nil {
		// Weights are non-negative by construction; aggregation cannot
		// fail on leaf sets. Treat a failure as maximal uncertainty so
		// that it cannot be mistaken for a resolved tree.
		return 1
	}
	return expectedDistance(ls, agg.Prefix(ls.K), o.Penalty)
}

// MPO is U_MPO: the probability-weighted mean generalized Kendall distance
// of the orderings to the Most Probable Ordering (the modal leaf).
type MPO struct {
	// Penalty is the K^(p) undetermined-pair penalty (default 1/2).
	Penalty float64
}

// Name implements Measure.
func (MPO) Name() string { return "MPO" }

// MaxDropPerQuestion implements Measure.
func (MPO) MaxDropPerQuestion() float64 { return 0 }

// Value implements Measure.
func (m MPO) Value(ls *tpo.LeafSet) float64 {
	if ls.Len() <= 1 {
		return 0
	}
	mpo := ls.Paths[ls.MostProbable()]
	return expectedDistance(ls, mpo, m.Penalty)
}

// expectedDistance returns Σ_ω w(ω)·K^(p)(ω, ref) over the normalized leaf
// set, using a precomputed-reference distancer to keep the per-leaf cost
// allocation-free.
func expectedDistance(ls *tpo.LeafSet, ref rank.Ordering, penalty float64) float64 {
	if penalty == 0 {
		penalty = rank.DefaultPenalty
	}
	d := rank.NewTopKDist(ref, penalty)
	var acc numeric.KahanSum
	for i, p := range ls.Paths {
		if ls.W[i] == 0 {
			continue
		}
		acc.Add(ls.W[i] * d.Normalized(p))
	}
	return acc.Sum()
}

// Representative returns the ordering a measure would report as the query
// answer for the current tree: the ORA for U_ORA, the MPO otherwise.
// This is what an application returns to its user after the question budget
// is exhausted.
func Representative(m Measure, ls *tpo.LeafSet) rank.Ordering {
	if ls.Len() == 0 {
		return nil
	}
	if _, isORA := m.(ORA); isORA {
		if ora, err := rank.Aggregate(ls.Paths, ls.W); err == nil {
			return ora.Prefix(ls.K)
		}
	}
	return ls.Paths[ls.MostProbable()].Clone()
}
