package main

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

// The host probes time fixed work that does not depend on the code under
// test. Each run prints them beside its metrics, so that sets of runs taken
// while the host's CPUs or disk ran at different speeds can be told apart.
const (
	cpuProbeReps   = 3
	fsyncProbeReps = 32
)

// cpuProbe is the median ms, over cpuProbeReps tries, of pure CPU work that
// touches memory as the server does: sorting 2^19 pseudo-random floats and
// filling a map with 2^17 of them.
func cpuProbe() float64 {
	ms := make([]float64, cpuProbeReps)
	for i := range ms {
		start := time.Now()
		rng := rand.New(rand.NewSource(1))
		xs := make([]float64, 1<<19)
		for j := range xs {
			xs[j] = rng.Float64()
		}
		sort.Float64s(xs)
		m := make(map[float64]int)
		for j, x := range xs[:1<<17] {
			m[x] = j
		}
		ms[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return percentile(ms, 50)
}

// fsyncProbe is the median ms, over fsyncProbeReps tries, of appending 64
// bytes to a file in dir and syncing it, as the server's WAL appends do
// under -fsync always.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	ms := make([]float64, fsyncProbeReps)
	for i := range ms {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return percentile(ms, 50), nil
}
