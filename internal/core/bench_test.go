package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkTrainZeroConfig trains the zero Config over lognormal keys and
// reports what the sizing rule bought (mean_abs_err) for what (index B/key).
// It guards the rule and the trainer's scratch (B/op) together, at two
// sizes: 1M keys, the retrain a flush, compaction or shard merge pays on
// the worker pool, and 65535, the largest resident run a drain retrains (a
// drain that reaches 64k keys is a flush), which trains on one goroutine.
func BenchmarkTrainZeroConfig(b *testing.B) {
	for _, n := range []int{parallelTrainMinKeys - 1, 1_000_000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			keys := benchLognormal(n, 1)
			var r *RMI
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r = New(keys, Config{})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
			b.ReportMetric(r.MeanAbsErr(), "mean_abs_err")
			b.ReportMetric(float64(r.SizeBytes())/float64(len(keys)), "index_B/key")
		})
	}
}

// BenchmarkRankEightSegments is a persistent store's batched rank read as
// the kernel saw it while every 4096 inserted keys became a segment file:
// 64 probes against each of 8 size-tiered plans (2M keys, then 128k halving
// down to 4k), segment-major, one LookupBatch call over the 512 (probe,
// plan) pairs. Probe batches rotate so the big array is not read from a
// warm line.
func BenchmarkRankEightSegments(b *testing.B) {
	benchRankSegments(b, []int{2_000_000, 131072, 65536, 32768, 16384, 8192, 4096, 4096})
}

// BenchmarkRankSpilledSegments is the shape the same read sees now that
// drains merge into one resident run and a file is written every 64k keys:
// the 2M-key base, one compacted 256k file, two 64k spills and a 32k
// resident run — 320 pairs.
func BenchmarkRankSpilledSegments(b *testing.B) {
	benchRankSegments(b, []int{2_000_000, 262144, 65536, 65536, 32768})
}

func benchRankSegments(b *testing.B, sizes []int) {
	plans := make([]*Plan, len(sizes))
	for i, n := range sizes {
		plans[i] = New(benchLognormal(n, int64(i+1)), Config{}).Plan()
	}
	const batch, batches = 64, 512
	rng := rand.New(rand.NewSource(9))
	big := plans[0].keys
	probes := make([]uint64, 0, batches*batch*len(plans))
	sel := make([]int32, 0, cap(probes))
	for bi := 0; bi < batches; bi++ {
		var draw [batch]uint64
		for i := range draw {
			draw[i] = big[rng.Intn(len(big))] + uint64(rng.Intn(2)) // stored keys and near misses
		}
		for s := range plans {
			for _, k := range draw {
				probes = append(probes, k)
				sel = append(sel, int32(s))
			}
		}
	}
	pairs := batch * len(plans)
	out := make([]int, pairs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := (i % batches) * pairs
		LookupBatch(plans, sel[at:at+pairs], probes[at:at+pairs], out)
	}
}
