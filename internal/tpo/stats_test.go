package tpo

import (
	"bytes"
	"strings"
	"testing"

	"crowdtopk/internal/numeric"
	"crowdtopk/internal/rank"
)

func TestTopKProbability(t *testing.T) {
	ls := &LeafSet{
		K:     2,
		Paths: []rank.Ordering{{0, 1}, {0, 2}},
		W:     []float64{0.6, 0.4},
	}
	pr := ls.TopKProbability()
	if !numeric.AlmostEqual(pr[0], 1, 1e-12) {
		t.Fatalf("Pr(0 in top-2) = %g", pr[0])
	}
	if !numeric.AlmostEqual(pr[1], 0.6, 1e-12) || !numeric.AlmostEqual(pr[2], 0.4, 1e-12) {
		t.Fatalf("marginals = %v", pr)
	}
}

func TestRankProbability(t *testing.T) {
	ls := &LeafSet{
		K:     2,
		Paths: []rank.Ordering{{0, 1}, {1, 0}},
		W:     []float64{0.7, 0.3},
	}
	p0 := ls.RankProbability(0)
	if !numeric.AlmostEqual(p0[0], 0.7, 1e-12) || !numeric.AlmostEqual(p0[1], 0.3, 1e-12) {
		t.Fatalf("rank probabilities of 0 = %v", p0)
	}
	pAbsent := ls.RankProbability(9)
	if pAbsent[0] != 0 || pAbsent[1] != 0 {
		t.Fatalf("absent tuple probabilities = %v", pAbsent)
	}
}

func TestLeafSetJSONRoundTrip(t *testing.T) {
	tree, err := Build(iidUniforms(t, 3), 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := tree.LeafSet()
	var buf bytes.Buffer
	if err := ls.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLeafSetJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.K != ls.K || back.Len() != ls.Len() {
		t.Fatalf("round trip: K %d→%d, len %d→%d", ls.K, back.K, ls.Len(), back.Len())
	}
	for i := range ls.Paths {
		if !ls.Paths[i].Equal(back.Paths[i]) {
			t.Fatalf("path %d changed: %v vs %v", i, ls.Paths[i], back.Paths[i])
		}
		if !numeric.AlmostEqual(ls.W[i], back.W[i], 1e-12) {
			t.Fatalf("weight %d changed: %g vs %g", i, ls.W[i], back.W[i])
		}
	}
}

func TestReadLeafSetJSONValidation(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"garbage", "not json"},
		{"length mismatch", `{"k":2,"paths":[[0,1]],"weights":[0.5,0.5]}`},
		{"path too long", `{"k":1,"paths":[[0,1]],"weights":[1]}`},
		{"duplicate id", `{"k":2,"paths":[[1,1]],"weights":[1]}`},
		{"negative id", `{"k":2,"paths":[[-1,1]],"weights":[1]}`},
		{"negative weight", `{"k":2,"paths":[[0,1]],"weights":[-1]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadLeafSetJSON(strings.NewReader(c.in)); err == nil {
				t.Fatalf("accepted %q", c.in)
			}
		})
	}
}
