package uncertainty

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crowdtopk/internal/rank"
	"crowdtopk/internal/tpo"
)

// lsView adapts a normalized LeafSet to View for testing, optionally with
// prefix grouping (computed the slow way, by hashing prefixes).
type lsView struct {
	ls      *tpo.LeafSet
	grouped bool
	groups  [][]int32
	counts  []int
}

func newLSView(ls *tpo.LeafSet, grouped bool) *lsView {
	v := &lsView{ls: ls, grouped: grouped}
	if grouped {
		v.groups = make([][]int32, ls.K)
		v.counts = make([]int, ls.K)
		for l := 1; l <= ls.K; l++ {
			ids := map[string]int32{}
			row := make([]int32, ls.Len())
			for i, p := range ls.Paths {
				key := fmt.Sprint(p[:min(l, len(p))])
				id, ok := ids[key]
				if !ok {
					id = int32(len(ids))
					ids[key] = id
				}
				row[i] = id
			}
			v.groups[l-1] = row
			v.counts[l-1] = len(ids)
		}
	}
	return v
}

func (v *lsView) K() int                   { return v.ls.K }
func (v *lsView) Len() int                 { return v.ls.Len() }
func (v *lsView) Weight(i int) float64     { return v.ls.W[i] }
func (v *lsView) Path(i int) rank.Ordering { return v.ls.Paths[i] }

type groupedView struct{ *lsView }

func (v groupedView) PrefixGroup(level, i int) int32 { return v.groups[level-1][i] }
func (v groupedView) GroupCount(level int) int       { return v.counts[level-1] }

func randomLeafSet(rng *rand.Rand, k int) *tpo.LeafSet {
	n := 3 + rng.Intn(8)
	ls := &tpo.LeafSet{K: k}
	for i := 0; i < n; i++ {
		perm := rng.Perm(k + 2)
		ls.Paths = append(ls.Paths, rank.Ordering(perm[:k]))
		ls.W = append(ls.W, rng.Float64())
	}
	total := 0.0
	for _, w := range ls.W {
		total += w
	}
	for i := range ls.W {
		ls.W[i] /= total
	}
	return ls
}

// TestValueViewMatchesValue pins that every measure's in-place evaluation
// equals the materialized Value on the same (normalized) leaf set.
func TestValueViewMatchesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	measures := []Measure{
		Entropy{},
		NewWeightedEntropy(0),
		ORA{Penalty: rank.DefaultPenalty},
		ORA{Penalty: rank.DefaultPenalty, Footrule: true},
		MPO{Penalty: rank.DefaultPenalty},
	}
	for trial := 0; trial < 20; trial++ {
		ls := randomLeafSet(rng, 3)
		for _, m := range measures {
			want := m.Value(ls)
			var s Scratch
			// Grouped, scratch-backed, and nil-scratch paths must all agree.
			gv := groupedView{newLSView(ls, true)}
			for name, got := range map[string]float64{
				"grouped+scratch": m.ValueView(gv, &s),
				"flat+scratch":    m.ValueView(newLSView(ls, false), &s),
				"flat+nil":        m.ValueView(newLSView(ls, false), nil),
			} {
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("trial %d %s %s: ValueView %.17g, Value %.17g", trial, m.Name(), name, got, want)
				}
			}
		}
	}
}
