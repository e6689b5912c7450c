package tpo

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"crowdtopk/internal/dist"
	"crowdtopk/internal/rank"
)

// ulpClose compares leaf weights across a checkpoint boundary: snapshot
// weights are normalized while in-tree posteriors are only nearly so, which
// leaves ulp-level differences that never affect rankings or selections.
func ulpClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), 1e-300)
}

func checkpointDists(t *testing.T, n int) []dist.Distribution {
	t.Helper()
	ds := make([]dist.Distribution, n)
	for i := range ds {
		u, err := dist.NewUniformAround(1+0.3*float64(i), 1.6)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = u
	}
	return ds
}

// TestCheckpointRoundTrip: envelope → ReadCheckpoint reproduces the leaf set
// exactly (paths, order and weights), and the digest is enforced.
func TestCheckpointRoundTrip(t *testing.T) {
	ds := checkpointDists(t, 6)
	tree, err := Build(ds, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := tree.LeafSet()
	var buf bytes.Buffer
	const digest = "sha256:feedface"
	if err := ls.WriteCheckpoint(&buf, digest); err != nil {
		t.Fatal(err)
	}

	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), digest)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != ls.K || got.Len() != ls.Len() {
		t.Fatalf("restored K=%d len=%d, want K=%d len=%d", got.K, got.Len(), ls.K, ls.Len())
	}
	for i := range ls.Paths {
		if got.W[i] != ls.W[i] {
			t.Fatalf("leaf %d weight drift: %v vs %v", i, got.W[i], ls.W[i])
		}
		for d := range ls.Paths[i] {
			if got.Paths[i][d] != ls.Paths[i][d] {
				t.Fatalf("leaf %d path drift: %v vs %v", i, got.Paths[i], ls.Paths[i])
			}
		}
	}

	// Digest mismatch: typed error naming the field.
	_, err = ReadCheckpoint(bytes.NewReader(buf.Bytes()), "sha256:other")
	var mm *MismatchError
	if !errors.As(err, &mm) || mm.Field != "dataset digest" {
		t.Fatalf("digest mismatch error = %v, want *MismatchError on dataset digest", err)
	}
	// Empty expectation skips the digest check (caller opted out).
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), ""); err != nil {
		t.Fatalf("digest check opt-out failed: %v", err)
	}
}

func TestCheckpointRejectsForeignPayloads(t *testing.T) {
	// Wrong kind.
	_, err := ReadCheckpoint(strings.NewReader(`{"schema":1,"kind":"other","leaves":{}}`), "")
	var mm *MismatchError
	if !errors.As(err, &mm) || mm.Field != "kind" {
		t.Fatalf("kind mismatch error = %v", err)
	}
	// Future schema.
	_, err = ReadCheckpoint(strings.NewReader(`{"schema":99,"kind":"crowdtopk/leafset","leaves":{}}`), "")
	if !errors.As(err, &mm) || mm.Field != "schema" {
		t.Fatalf("schema mismatch error = %v", err)
	}
	// A bare WriteJSON payload (no envelope) must be rejected, not silently
	// mis-restored.
	ds := checkpointDists(t, 4)
	tree, err := Build(ds, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var bare bytes.Buffer
	if err := tree.LeafSet().WriteJSON(&bare); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(&bare, ""); err == nil {
		t.Fatal("bare leaf-set JSON accepted as a checkpoint")
	}
}

// TestFromLeafSet: a tree rebuilt from a snapshot enumerates the identical
// leaf set and behaves identically under pruning and extension.
func TestFromLeafSet(t *testing.T) {
	ds := checkpointDists(t, 6)
	orig, err := Build(ds, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Condition the original a little so weights are non-uniformly scaled.
	if err := orig.Prune(Answer{Q: NewQuestion(0, 5), Yes: false}); err != nil {
		t.Fatal(err)
	}
	ls := orig.LeafSet()

	restored, err := FromLeafSet(ds, 3, ls, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
	rls := restored.LeafSet()
	if rls.Len() != ls.Len() || rls.K != ls.K {
		t.Fatalf("restored leaf set %d@%d, want %d@%d", rls.Len(), rls.K, ls.Len(), ls.K)
	}
	for i := range ls.Paths {
		if rls.W[i] != ls.W[i] {
			t.Fatalf("leaf %d: weight %v vs %v", i, rls.W[i], ls.W[i])
		}
		for d := range ls.Paths[i] {
			if rls.Paths[i][d] != ls.Paths[i][d] {
				t.Fatalf("leaf %d: path order not preserved: %v vs %v", i, rls.Paths[i], ls.Paths[i])
			}
		}
	}

	// Same future: prune both with the same answer and compare exactly.
	a := Answer{Q: NewQuestion(2, 4), Yes: true}
	if err := orig.Prune(a); err != nil {
		t.Fatal(err)
	}
	if err := restored.Prune(a); err != nil {
		t.Fatal(err)
	}
	ols, rls2 := orig.LeafSet(), restored.LeafSet()
	if ols.Len() != rls2.Len() {
		t.Fatalf("post-prune leaf counts diverge: %d vs %d", ols.Len(), rls2.Len())
	}
	for i := range ols.W {
		if !ulpClose(ols.W[i], rls2.W[i]) {
			t.Fatalf("post-prune leaf %d: weight %v vs %v", i, ols.W[i], rls2.W[i])
		}
	}
}

// TestFromLeafSetExtends: a partially built (incr) tree restored from its
// snapshot extends to the same next level as the original.
func TestFromLeafSetExtends(t *testing.T) {
	ds := checkpointDists(t, 6)
	orig, err := StartIncremental(ds, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Extend(); err != nil { // depth 2 of 3
		t.Fatal(err)
	}
	ls := orig.LeafSet()
	restored, err := FromLeafSet(ds, 3, ls, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Depth() != 2 {
		t.Fatalf("restored depth = %d, want 2", restored.Depth())
	}
	if err := orig.Extend(); err != nil {
		t.Fatal(err)
	}
	if err := restored.Extend(); err != nil {
		t.Fatal(err)
	}
	ols, rls := orig.LeafSet(), restored.LeafSet()
	if ols.Len() != rls.Len() {
		t.Fatalf("extended leaf counts diverge: %d vs %d", ols.Len(), rls.Len())
	}
	for i := range ols.W {
		if !ulpClose(ols.W[i], rls.W[i]) {
			t.Fatalf("extended leaf %d: weight %v vs %v", i, ols.W[i], rls.W[i])
		}
		for d := range ols.Paths[i] {
			if ols.Paths[i][d] != rls.Paths[i][d] {
				t.Fatalf("extended leaf %d: path %v vs %v", i, ols.Paths[i], rls.Paths[i])
			}
		}
	}
}

func TestFromLeafSetRejectsBadInput(t *testing.T) {
	ds := checkpointDists(t, 4)
	tree, err := Build(ds, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := tree.LeafSet()
	if _, err := FromLeafSet(ds, 2, &LeafSet{K: 2}, BuildOptions{}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("empty leaf set: %v", err)
	}
	if _, err := FromLeafSet(ds, 1, ls, BuildOptions{}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("depth beyond K: %v", err)
	}
	bad := ls.Clone()
	bad.Paths[0][0] = 99
	if _, err := FromLeafSet(ds, 2, bad, BuildOptions{}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("out-of-range tuple id: %v", err)
	}
}

// TestFromLeafSetFullDepthSkipsSamples: a snapshot at depth K restores
// without grid samples, since only Extend reads them, yet with every input
// check Build makes; a partial snapshot keeps its samples and extends to the
// tree the original grows.
func TestFromLeafSetFullDepthSkipsSamples(t *testing.T) {
	ds := checkpointDists(t, 6)
	opt := BuildOptions{GridSize: 256}
	full, err := Build(ds, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := FromLeafSet(ds, 3, full.LeafSet(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if restored.pdfs != nil || restored.cdfs != nil || restored.wins != nil {
		t.Fatal("full-depth restore holds grid samples")
	}
	if restored.Grid().Len() != 256 {
		t.Fatalf("restored grid has %d points, want 256", restored.Grid().Len())
	}
	if err := restored.Extend(); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("Extend at full depth: %v", err)
	}

	// The same validation errors as the sampling path: a support narrower
	// than two grid steps, and K beyond the dataset.
	narrow, err := dist.NewUniform(2, 2.001)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		ds   []dist.Distribution
		ls   *LeafSet
	}{
		{"narrow support", append(checkpointDists(t, 3), narrow), &LeafSet{K: 2, Paths: []rank.Ordering{{0, 1}}, W: []float64{1}}},
		{"K beyond tuples", checkpointDists(t, 2), &LeafSet{K: 3, Paths: []rank.Ordering{{0, 1, 2}}, W: []float64{1}}},
	}
	for _, c := range bad {
		_, want := prepare(c.ds, c.ls.K, opt, nil)
		_, got := FromLeafSet(c.ds, c.ls.K, c.ls, opt)
		if want == nil || got == nil || got.Error() != want.Error() || !errors.Is(got, ErrInvalidInput) {
			t.Errorf("%s: FromLeafSet error %v, sampling path %v", c.name, got, want)
		}
	}

	// A partial snapshot extends to the original's next level. The original
	// first adopts the restored posteriors (the snapshot's normalized
	// weights), so the two trees differ at most in their grid samples.
	orig, err := StartIncremental(ds, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Extend(); err != nil { // depth 2 of 3
		t.Fatal(err)
	}
	partial, err := FromLeafSet(ds, 3, orig.LeafSet(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if partial.pdfs == nil {
		t.Fatal("partial restore holds no grid samples")
	}
	var posteriors []float64
	partial.walkLeaves(func(n *Node, _ rank.Ordering) { posteriors = append(posteriors, n.Prob) })
	i := 0
	orig.walkLeaves(func(n *Node, _ rank.Ordering) { n.Prob = posteriors[i]; i++ })
	if err := orig.Extend(); err != nil {
		t.Fatal(err)
	}
	if err := partial.Extend(); err != nil {
		t.Fatal(err)
	}
	if treeFingerprint(partial) != treeFingerprint(orig) {
		t.Error("restored partial tree extends differently from the original")
	}
}
