package tpo

import "crowdtopk/internal/numeric"

// TopKProbability returns, for each tuple, the probability that it appears
// anywhere in the top-K result — the per-tuple marginal applications often
// report alongside the ranking.
func (ls *LeafSet) TopKProbability() map[int]float64 {
	out := make(map[int]float64)
	for i, p := range ls.Paths {
		for _, id := range p {
			out[id] += ls.W[i]
		}
	}
	for id, v := range out {
		out[id] = numeric.Clamp(v, 0, 1)
	}
	return out
}

// RankProbability returns Pr(tuple id occupies rank r) for r in [0, K).
func (ls *LeafSet) RankProbability(id int) []float64 {
	out := make([]float64, ls.K)
	for i, p := range ls.Paths {
		for r, t := range p {
			if t == id && r < len(out) {
				out[r] += ls.W[i]
			}
		}
	}
	return out
}
