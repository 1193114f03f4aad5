package learnedindex_test

import (
	"fmt"
	"sort"
	"testing"

	"learnedindex"
	"learnedindex/internal/data"
)

// Scan-subsystem benchmarks: the streaming loser-tree merge over the
// store (with a live pending-delta layer), across range widths,
// plus the learned COUNT against iterate-and-count. CI runs these at
// -benchtime=100x as a smoke test; the benchmark module's scan.* ladder
// rungs carry the measured numbers.

func scanStore(b *testing.B) (*learnedindex.Store, data.Keys) {
	load()
	st := learnedindex.NewStore(dLogn, learnedindex.Config{},
		learnedindex.StoreOptions{MergeThreshold: 1 << 30})
	b.Cleanup(func() { st.Close() })
	// A buffered delta layer the merge must carry.
	for _, k := range dProbes["Lognormal"][:4096] {
		st.Insert(k + 1)
	}
	return st, dLogn
}

func BenchmarkStoreScan(b *testing.B) {
	for _, width := range []int{1_000, 64_000} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			st, keys := scanStore(b)
			starts := dProbes["Lognormal"]
			buf := make([]uint64, 0, width+4096)
			b.ResetTimer()
			produced := 0
			for i := 0; i < b.N; i++ {
				lo := starts[i%len(starts)]
				hi := scanHi(keys, lo, width)
				buf = st.ScanBatch(lo, hi, buf[:0])
				produced += len(buf)
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(produced)/float64(b.N), "keys/scan")
			}
		})
	}
}

// BenchmarkStoreScanString is BenchmarkStoreScan over doc-id strings, in
// memory and on a persistent store of several segments. No string layer
// holds strings: every key streamed is 8 prefix bytes plus its suffix
// copied into a page, one allocation per page (allocs/op over keys/scan is
// the check that it stays per page, not per key).
func BenchmarkStoreScanString(b *testing.B) {
	load()
	keys := []string(dDocIDs)
	for _, persistent := range []bool{false, true} {
		for _, width := range []int{100, 4_000} {
			b.Run(fmt.Sprintf("persistent=%v/width=%d", persistent, width), func(b *testing.B) {
				opt := learnedindex.StoreOptions{MergeThreshold: 1 << 30}
				if persistent {
					opt = learnedindex.StoreOptions{Dir: b.TempDir()}
				}
				// A base plus a few flushed runs and a buffered delta: the
				// layers a served scan merges.
				st, err := learnedindex.OpenStringStore(keys[:len(keys)/2], learnedindex.Config{}, opt)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { st.Close() })
				rest := keys[len(keys)/2:]
				for i, k := range rest {
					st.InsertString(k)
					if i%(len(rest)/4) == 0 {
						st.Flush()
					}
				}
				st.Flush()
				for _, k := range dSProbes[:4096] {
					st.InsertString(k + "+")
				}
				buf := make([]string, 0, width+16)
				b.ReportAllocs()
				b.ResetTimer()
				produced := 0
				for i := 0; i < b.N; i++ {
					lo := dSProbes[i%len(dSProbes)]
					hi := keys[len(keys)-1] + "~"
					if p := sort.SearchStrings(keys, lo) + width; p < len(keys) {
						hi = keys[p]
					}
					buf = st.ScanBatchString(lo, hi, buf[:0])
					produced += len(buf)
				}
				b.StopTimer()
				if b.N > 0 {
					b.ReportMetric(float64(produced)/float64(b.N), "keys/scan")
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(produced, 1)), "ns/key")
				}
			})
		}
	}
}

func BenchmarkStoreCountRange(b *testing.B) {
	st, keys := scanStore(b)
	starts := dProbes["Lognormal"]
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		lo := starts[i%len(starts)]
		sink += st.CountRange(lo, scanHi(keys, lo, 64_000))
	}
	_ = sink
}

func scanHi(keys data.Keys, lo uint64, width int) uint64 {
	p := keys.LowerBound(lo) + width
	if p >= len(keys) {
		return keys[len(keys)-1] + 1
	}
	return keys[p]
}
