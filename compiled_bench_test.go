package learnedindex_test

import (
	"slices"
	"testing"

	"learnedindex/internal/core"
)

// BenchmarkCompiledReadPath prices the compiled read path, core.Plan, on
// the 1M-key lognormal dataset: single-key lookups, and the batch kernel
// over 512-probe batches of ascending and of shuffled probes.
func BenchmarkCompiledReadPath(b *testing.B) {
	load()
	for _, perLeaf := range []int{2000, 1000, 250} {
		r := core.New(dLogn, core.DefaultConfig(benchN/perLeaf))
		p := r.Plan()
		probes := dProbes["Lognormal"]
		sorted := slices.Clone(probes)
		slices.Sort(sorted)
		out := make([]int, 512)
		pl := itoa(perLeaf)
		b.Run("compiled/single/perLeaf"+pl, func(b *testing.B) {
			benchLookups(b, probes, r.SizeBytes(), p.Lookup)
		})
		batch := func(stream []uint64) func(b *testing.B) {
			return func(b *testing.B) {
				n := 0
				for i := 0; i < b.N; i++ {
					off := (n * 512) & (1<<16 - 1)
					n++
					p.LookupBatch(stream[off:off+512], out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*512), "ns/key")
			}
		}
		b.Run("compiled/batch/perLeaf"+pl, batch(sorted))
		b.Run("compiled/batchunsorted/perLeaf"+pl, batch(probes))
	}
}
