package pcache

import (
	"testing"

	"crowdtopk/internal/dataset"
	"crowdtopk/internal/dist"
)

// BenchmarkPCachePrewarm times Prewarm on the serving benchmark's two
// dataset shapes, one freshly parsed dataset per iteration, as served
// creates fill the cache: catalog (every session on one uniform N=24
// dataset, parsed anew each time) and durable (a fresh uniform N=12 dataset
// per session). Parsing is untimed. entries is the cache size the run
// leaves, which two generations bound however many datasets pass.
func BenchmarkPCachePrewarm(b *testing.B) {
	shapes := []struct {
		name   string
		spec   dataset.Spec
		shared bool
	}{
		{"catalog/N=24/workers=1", dataset.Spec{N: 24, Width: 3, Spacing: 0.5, Jitter: 0.001, Seed: 1}, true},
		{"durable/N=12/workers=1", dataset.Spec{N: 12, Width: 2, Spacing: 0.5, Seed: 1}, false},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			fresh := make([][]dist.Distribution, b.N)
			for i := range fresh {
				spec := sh.spec
				if !sh.shared {
					spec.Seed = int64(i) + 1
				}
				ds, err := dataset.Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
				specs, err := dataset.SpecsOf(ds)
				if err != nil {
					b.Fatal(err)
				}
				if fresh[i], err = dataset.FromSpecs(specs); err != nil {
					b.Fatal(err)
				}
			}
			Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Prewarm(fresh[i], 1)
			}
			b.StopTimer()
			b.ReportMetric(float64(Stats().Entries), "entries")
		})
	}
}
