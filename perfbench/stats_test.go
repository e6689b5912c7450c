package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},
		{ten, 10, 1},
		{ten, 11, 2},
		{ten, 90, 9},
		{ten, 99, 10},
		{ten, 100, 10},
		{[]float64{3}, 50, 3},
		{[]float64{3}, 99, 3},
		{[]float64{1, 2}, 50, 1},
		{[]float64{1, 2}, 51, 2},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Errorf("percentile sorted its input in place: %v", ten)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func sampleAt(cpu, wchar uint64, logB, sock int64, fsyncs uint64, dirty int, entries, resets, hits, misses, reuses, rebuilds int64) counterSample {
	var s counterSample
	s.proc = procSample{CPUTicks: cpu, WChar: wchar}
	s.logBytes, s.sockBytes = logB, sock
	s.stats.Store.Persist = &persistCounter{Fsyncs: fsyncs}
	s.stats.Store.DirtySessions = dirty
	s.stats.PCache.Entries, s.stats.PCache.Resets = entries, resets
	s.stats.PCacheWindow.Hits, s.stats.PCacheWindow.Misses = hits, misses
	s.stats.Live.Reuses, s.stats.Live.Rebuilds = reuses, rebuilds
	return s
}

func TestCounterWindowDelta(t *testing.T) {
	var w counterWindow
	// The first sample's π-cache window covers the time before the
	// measurement and must not count; a cache reset between samples drops
	// entries but the per-call windows still add up.
	w.add(sampleAt(100, 1000, 50, 10, 7, 0, 500, 0, 999, 999, 3, 1))
	w.add(sampleAt(150, 5000, 250, 1010, 9, 4, 1500, 0, 80, 20, 13, 2))
	w.add(sampleAt(180, 9000, 450, 2010, 12, 1, 200, 1, 30, 10, 23, 3))
	d := w.delta()
	want := counterDelta{cpuTicks: 80, wchar: 8000, logBytes: 400, sockBytes: 2000, fsyncs: 5,
		reuses: 20, rebuilds: 2, resets: 1, pcHits: 110, pcMisses: 30, entriesMax: 1500, dirtyMax: 4}
	if d != want {
		t.Errorf("delta = %+v\nwant    %+v", d, want)
	}
	if w.n != 3 {
		t.Errorf("n = %d, want 3", w.n)
	}
}

func TestParseStatCPU(t *testing.T) {
	stat := []byte("4242 (crowd topk) S 1 4242 4242 0 -1 4194560 1573 0 0 0 37 12 0 0 20 0 9 0 1234 1000 500")
	got, err := parseStatCPU(stat)
	if err != nil || got != 49 {
		t.Errorf("parseStatCPU = %d, %v; want 49 (utime 37 + stime 12)", got, err)
	}
}

func TestLadderCheck(t *testing.T) {
	// One route, ladderPasses passes of 6 sessions; rung r takes base[r] µs
	// plus noise[r] µs that differs from replay to replay, and rung 4's
	// route span holds one primitive call of prim µs.
	build := func(base, noise [rungs + 1]float64, prim float64) []span {
		var spans []span
		for pass := 0; pass < ladderPasses; pass++ {
			for sess := 0; sess < 6; sess++ {
				for r := 1; r <= rungs; r++ {
					// A fixed pattern of signs, different per rung, stands in
					// for noise.
					sign := float64((pass+sess*r)%3 - 1)
					dur := int64((base[r] + sign*noise[r] + float64(pass)) * 1e3)
					spans = append(spans, span{Name: "answers", Route: true, OK: true, Rung: r, Pass: pass, Session: sess, Parent: -1, End: dur})
					if r == rungs {
						spans = append(spans, span{Name: "tpo.Prune", OK: true, Rung: r, Pass: pass, Session: sess, Parent: len(spans) - 1, End: int64(prim * 1e3)})
					}
				}
			}
		}
		return spans
	}
	quiet := [rungs + 1]float64{}
	if notes, failed := newLadderStats(build([rungs + 1]float64{0, 1000, 600, 550, 500}, quiet, 495)).check(); failed != 0 {
		t.Errorf("consistent ladder failed the check: %v", notes)
	}
	// Rung 3 slower than rung 2 by far more than the replay-to-replay
	// spread: the service layer's self time is negative.
	if _, failed := newLadderStats(build([rungs + 1]float64{0, 1000, 600, 700, 500}, quiet, 495)).check(); failed != 1 {
		t.Errorf("negative self time: %d failures, want 1", failed)
	}
	// The same gap within noise of ±150µs per replay is noise, not different
	// work, and must pass.
	if notes, failed := newLadderStats(build([rungs + 1]float64{0, 1000, 600, 640, 500}, [rungs + 1]float64{0, 0, 150, 150, 0}, 495)).check(); failed != 0 {
		t.Errorf("noisy but consistent ladder failed the check: %v", notes)
	}
	// The primitives account for only half of rung 4: the layers no longer
	// add up to the HTTP rung.
	if _, failed := newLadderStats(build([rungs + 1]float64{0, 1000, 600, 550, 500}, quiet, 250)).check(); failed != 1 {
		t.Errorf("unattributed rung-4 time: %d failures, want 1", failed)
	}
	// One rung-4 call stalled outside the primitives, as by a pause of the
	// benchmark's own process, is an outlier the medians ignore.
	spans := build([rungs + 1]float64{0, 1000, 600, 550, 500}, quiet, 495)
	for i := range spans {
		if spans[i].Route && spans[i].Rung == rungs {
			spans[i].End += 5000e3
			break
		}
	}
	if notes, failed := newLadderStats(spans).check(); failed != 0 {
		t.Errorf("one stalled call failed the check: %v", notes)
	}
}
