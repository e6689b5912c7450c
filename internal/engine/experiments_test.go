package engine

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"crowdtopk/internal/numeric"
)

func quickOpts() ExpOptions {
	return ExpOptions{Quick: true, Trials: 2, Seed: 7}
}

func TestTableSetGetAndColumns(t *testing.T) {
	tbl := NewTable("t", "x", []string{"a"})
	tbl.Set("a", 1, 0.5)
	tbl.Set("b", 2, 0.25) // new column appended on demand
	tbl.Set("a", 2, 0.75)
	if v, ok := tbl.Get("a", 1); !ok || v != 0.5 {
		t.Fatalf("Get(a,1) = %g, %v", v, ok)
	}
	if _, ok := tbl.Get("a", 99); ok {
		t.Fatal("absent x reported present")
	}
	if _, ok := tbl.Get("zzz", 1); ok {
		t.Fatal("absent column reported present")
	}
	if len(tbl.Columns) != 2 {
		t.Fatalf("columns = %v", tbl.Columns)
	}
	if len(tbl.XValues) != 2 || tbl.XValues[0] != 1 || tbl.XValues[1] != 2 {
		t.Fatalf("x values = %v (must be sorted, deduped)", tbl.XValues)
	}
	tbl.Set("a", 1, 0.9) // overwrite, no new x
	if len(tbl.XValues) != 2 {
		t.Fatalf("x values grew on overwrite: %v", tbl.XValues)
	}
}

func TestTableTextRendering(t *testing.T) {
	tbl := NewTable("My Experiment", "B", nil)
	tbl.Set("alg", 5, 0.125)
	tbl.Footnote = "note"
	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"My Experiment", "B", "alg", "0.125", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSVAndJSON(t *testing.T) {
	tbl := NewTable("t", "x", nil)
	tbl.Set("s1", 1, 0.5)
	tbl.Set("s1", 2, 0.25)
	tbl.Set("s2", 1, 1.5)

	var csvBuf bytes.Buffer
	if err := tbl.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d: %q", len(lines), csvBuf.String())
	}
	if lines[0] != "x,s1,s2" {
		t.Fatalf("csv header = %q", lines[0])
	}
	// s2 has no value at x=2: empty cell.
	if !strings.HasSuffix(lines[2], ",") {
		t.Fatalf("missing cell not empty: %q", lines[2])
	}

	var jsonBuf bytes.Buffer
	if err := tbl.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		XValues []float64            `json:"x_values"`
		Series  map[string][]float64 `json:"series"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.XValues) != 2 || len(decoded.Series["s1"]) != 2 {
		t.Fatalf("json decoded = %+v", decoded)
	}
}

func TestTableRenderFormats(t *testing.T) {
	tbl := NewTable("t", "x", nil)
	tbl.Set("a", 1, 1)
	for _, f := range []string{"", "text", "csv", "json"} {
		var buf bytes.Buffer
		if err := tbl.Render(&buf, f); err != nil {
			t.Fatalf("format %q: %v", f, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("format %q produced no output", f)
		}
	}
	if err := tbl.Render(&bytes.Buffer{}, "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestFig1aQuickShape(t *testing.T) {
	tbl, err := Fig1a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// All algorithms share the B=0 distance and improve (weakly) with B.
	base, ok := tbl.Get(AlgT1On, 0)
	if !ok {
		t.Fatal("missing B=0 cell")
	}
	for _, alg := range Fig1aAlgorithms {
		v0, ok := tbl.Get(alg, 0)
		if !ok || !numeric.AlmostEqual(v0, base, 1e-3) {
			t.Fatalf("%s B=0 distance %g != %g", alg, v0, base)
		}
		vEnd, ok := tbl.Get(alg, 10)
		if !ok {
			t.Fatalf("%s missing final budget", alg)
		}
		if vEnd > v0+1e-9 {
			t.Fatalf("%s distance grew with budget: %g → %g", alg, v0, vEnd)
		}
	}
	// The informed strategies must beat random at the final budget.
	t1, _ := tbl.Get(AlgT1On, 10)
	rd, _ := tbl.Get(AlgRandom, 10)
	if t1 > rd+1e-9 {
		t.Fatalf("T1-on (%g) worse than random (%g) at final budget", t1, rd)
	}
}

func TestFig1bQuickShape(t *testing.T) {
	// incr must be the cheapest algorithm at the largest budget. The cells
	// are wall-clock costs well under a millisecond, and other processes on
	// the CPUs only ever add time to them, so the claim is checked on each
	// cell's minimum over repeated runs.
	const runs = 7
	algs := []string{AlgT1On, AlgTBOff, AlgCOff, AlgIncr}
	best := make(map[string]float64, len(algs))
	for r := 0; r < runs; r++ {
		tbl, err := Fig1b(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range algs {
			v, ok := tbl.Get(alg, 10)
			if !ok {
				t.Fatalf("missing %s cell", alg)
			}
			if b, seen := best[alg]; !seen || v < b {
				best[alg] = v
			}
		}
	}
	inc := best[AlgIncr]
	for _, alg := range algs[:3] {
		if v := best[alg]; v < inc {
			t.Fatalf("%s (%gs) cheaper than incr (%gs), fastest of %d runs each", alg, v, inc, runs)
		}
	}
}

func TestMeasureComparisonQuick(t *testing.T) {
	tbl, err := MeasureComparison(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"U_H", "U_Hw", "U_ORA", "U_MPO"} {
		if _, ok := tbl.Get(col, 0); !ok {
			t.Fatalf("missing column %s", col)
		}
	}
}

func TestNoisyWorkersQuick(t *testing.T) {
	tbl, err := NoisyWorkers(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Perfect workers dominate noisy ones at the final budget.
	perfect, ok1 := tbl.Get("p=1.0", 10)
	noisy, ok2 := tbl.Get("p=0.7", 10)
	if !ok1 || !ok2 {
		t.Fatal("missing cells")
	}
	if perfect > noisy+1e-9 {
		t.Fatalf("perfect crowd (%g) worse than p=0.7 (%g)", perfect, noisy)
	}
}

func TestNonUniformQuick(t *testing.T) {
	tbl, err := NonUniform(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"uniform", "gaussian", "triangular"} {
		v0, ok0 := tbl.Get(fam, 0)
		vEnd, okE := tbl.Get(fam, 10)
		if !ok0 || !okE {
			t.Fatalf("missing cells for %s", fam)
		}
		if vEnd > v0+1e-9 {
			t.Fatalf("%s distance grew: %g → %g", fam, v0, vEnd)
		}
	}
}

func TestScalabilityQuick(t *testing.T) {
	tbl, err := Scalability(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.XValues) < 3 {
		t.Fatalf("x values = %v", tbl.XValues)
	}
	for _, x := range tbl.XValues {
		full, ok := tbl.Get("full leaves", x)
		if !ok {
			t.Fatalf("missing full leaves at N=%g", x)
		}
		if full <= 0 {
			t.Fatalf("full leaves = %g at N=%g", full, x)
		}
	}
}

func TestAblationGridQuick(t *testing.T) {
	tbl, err := AblationGrid(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Error must decrease as the grid refines.
	errs := make([]float64, 0, len(tbl.XValues))
	for _, x := range tbl.XValues {
		v, ok := tbl.Get("max leaf prob error", x)
		if !ok {
			t.Fatalf("missing error cell at grid=%g", x)
		}
		errs = append(errs, v)
	}
	for i := 1; i < len(errs); i++ {
		if errs[i] > errs[i-1]+1e-12 {
			t.Fatalf("grid refinement increased error: %v", errs)
		}
	}
}

func TestAblationEpsilonQuick(t *testing.T) {
	o := quickOpts()
	tbl, err := AblationEpsilon(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.XValues) != 4 {
		t.Fatalf("x values = %v", tbl.XValues)
	}
}

func TestAblationRoundSizeQuick(t *testing.T) {
	tbl, err := AblationRoundSize(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range tbl.XValues {
		q, ok := tbl.Get("questions", x)
		if !ok || q < 0 {
			t.Fatalf("questions at n=%g: %g, %v", x, q, ok)
		}
	}
}

func TestTrajectoryQuick(t *testing.T) {
	tbl, err := Trajectory(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Distances along the trajectory must be monotone non-increasing with
	// perfect answers.
	prev := 2.0
	for _, x := range tbl.XValues {
		v, ok := tbl.Get("mean distance", x)
		if !ok {
			t.Fatalf("missing trajectory cell at %g", x)
		}
		if v > prev+1e-9 {
			t.Fatalf("trajectory increased at question %g: %g → %g", x, prev, v)
		}
		prev = v
	}
}

func TestRecordTrajectoryInRun(t *testing.T) {
	cfg := baseConfig(t, AlgT1On)
	cfg.RecordTrajectory = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trajectory) != res.Asked+1 {
		t.Fatalf("trajectory length %d, want asked+1 = %d", len(res.Trajectory), res.Asked+1)
	}
	if res.Trajectory[0] != res.InitialDistance {
		t.Fatalf("trajectory[0] = %g, want initial distance %g", res.Trajectory[0], res.InitialDistance)
	}
	if res.Trajectory[len(res.Trajectory)-1] != res.FinalDistance {
		t.Fatalf("trajectory end = %g, want final %g", res.Trajectory[len(res.Trajectory)-1], res.FinalDistance)
	}
}

func TestExperimentRegistry(t *testing.T) {
	names := ExperimentNames()
	if len(names) < 8 {
		t.Fatalf("experiments registered: %v", names)
	}
	for _, want := range []string{"fig1a", "fig1b", "measures", "noisy", "nonuniform", "scale",
		"ablation-grid", "ablation-eps", "ablation-round", "trajectory"} {
		if _, ok := Experiments[want]; !ok {
			t.Fatalf("experiment %q missing from registry", want)
		}
	}
	// Sorted.
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestConfigForAppliesDefaults(t *testing.T) {
	cfg, err := ConfigFor(ExpOptions{}, AlgT1On)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Dists) != 20 || cfg.K != 5 {
		t.Fatalf("defaults not applied: N=%d K=%d", len(cfg.Dists), cfg.K)
	}
	if cfg.BranchEpsilon != 1e-5 {
		t.Fatalf("branch epsilon default = %g", cfg.BranchEpsilon)
	}
}
