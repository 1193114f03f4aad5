package storage

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/keycodec"
)

// benchEngine builds a multi-segment engine under b.TempDir once.
func benchEngine(b *testing.B, n, batches int) (*Engine, []uint64) {
	b.Helper()
	keys := data.Maps(n, 1)
	return flushedEngine(b, keys, batches), keys
}

// flushedEngine flushes keys, in the order given, as batches segments of
// an engine under b.TempDir.
func flushedEngine(b *testing.B, keys []uint64, batches int) *Engine {
	b.Helper()
	e, err := Open(b.TempDir(), Options{NoCompactor: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < batches; i++ {
		if err := e.Append(keys[i*len(keys)/batches : (i+1)*len(keys)/batches]...); err != nil {
			b.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// BenchmarkEngineContainsHit prices membership of served keys: one
// Contains per op over 4 key-range-disjoint segments, and one 64-key
// ContainsBatch per op over 4 and over 12 segments that each span the
// whole key range — the list random inserts age into, where every probe
// passes every fence.
func BenchmarkEngineContainsHit(b *testing.B) { benchContains(b, data.SampleExisting, true) }

// BenchmarkEngineContainsMiss is BenchmarkEngineContainsHit for keys in
// the fences that no segment stores.
func BenchmarkEngineContainsMiss(b *testing.B) { benchContains(b, data.SampleMissing, false) }

func benchContains(b *testing.B, sample func(data.Keys, int, int64) []uint64, want bool) {
	const nprobes = 1 << 14
	b.Run("single", func(b *testing.B) {
		e, keys := benchEngine(b, 200_000, 4)
		probes := sample(keys, nprobes, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if e.Contains(probes[i&(nprobes-1)]) != want {
				b.Fatalf("Contains(%d) != %v", probes[i&(nprobes-1)], want)
			}
		}
	})
	for _, segs := range []int{4, 12} {
		b.Run(fmt.Sprintf("batch64/segs=%d", segs), func(b *testing.B) {
			keys := data.Maps(200_000, 1)
			shuffled := make([]uint64, len(keys))
			for i, j := range rand.New(rand.NewSource(5)).Perm(len(keys)) {
				shuffled[i] = keys[j]
			}
			e := flushedEngine(b, shuffled, segs)
			probes := sample(keys, nprobes, 2)
			out := make([]bool, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := probes[i*64&(nprobes-1):][:64]
				e.ContainsBatch(batch, out)
				for j, got := range out {
					if got != want {
						b.Fatalf("ContainsBatch: %d answered %v", batch[j], got)
					}
				}
			}
		})
	}
}

// BenchmarkEngineDrain prices one 4096-key Drain — the dedupe against the
// served segments, the merge into the resident run, its retrain and
// publication — on a 2M-key lognormal base holding a half-full (32k-key)
// resident run. Each op's engine is set up afresh outside the timer: a
// bulk load, a committed and drained 32k-key run, and 4096 committed keys,
// so the timed drain syncs nothing. Run with -benchtime 30x or so: the
// set-up costs ~0.1 s an op.
func BenchmarkEngineDrain(b *testing.B) {
	base := data.LognormalPaper(2_000_000, 1)
	fresh := data.LognormalPaper(spillKeys/2+4096, 2)
	rand.New(rand.NewSource(3)).Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	run, batch := fresh[:spillKeys/2], fresh[spillKeys/2:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(b.TempDir(), "drain")
		if err != nil {
			b.Fatal(err)
		}
		e, err := Open(dir, Options{NoCompactor: true})
		if err == nil {
			err = e.BulkLoad(base)
		}
		if err == nil {
			err = e.CommitBatch(run)
		}
		if err == nil {
			err = e.Drain()
		}
		if err == nil {
			err = e.CommitBatch(batch)
		}
		if err != nil {
			b.Fatal(err)
		}
		before := e.Stats()
		b.StartTimer()
		if err := e.Drain(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := e.Stats(); st.Flushes != before.Flushes || st.Drains != before.Drains+1 {
			b.Fatalf("the drain wrote %d files and counted %d drains, want none and one", st.Flushes-before.Flushes, st.Drains-before.Drains)
		}
		e.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

func BenchmarkEngineColdOpen(b *testing.B) {
	e, _ := benchEngine(b, 200_000, 4)
	dir := e.Dir()
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := Open(dir, Options{NoCompactor: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCommitParallel measures group-commit throughput: every
// parallel worker is a durable committer, so the cohort amortizes one
// fsync across all of them. Compare with -cpu=1,8 (or the writepath
// experiment) to see the fsync amortization; b.N counts keys.
func BenchmarkEngineCommitParallel(b *testing.B) {
	e, err := Open(b.TempDir(), Options{NoCompactor: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := e.Commit(next.Add(1)); err != nil {
				b.Error(err) // Fatal is not allowed off the benchmark goroutine
				return
			}
		}
	})
	b.StopTimer()
	st := e.Stats()
	b.ReportMetric(float64(st.WALSyncs), "fsyncs")
}

func BenchmarkEngineFlushSegment(b *testing.B) {
	keys := data.Maps(50_000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := Open(b.TempDir(), Options{NoCompactor: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Append(keys...); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
}

// BenchmarkBuildSegment prices the build of a 2M-key lognormal segment,
// the disk-mixed preload's: the model fit alone.
func BenchmarkBuildSegment(b *testing.B) {
	keys := dedupSorted(data.LognormalPaper(2_000_000, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildSegment(0, 0, keys, core.Config{})
	}
}

// BenchmarkBuildStringSegment prices the build of a 200k-key DocID segment,
// the shape of a cluster-mixed-str node's preload and of a replica's
// baseline: the dictionary alone (one prefix per key), and the whole
// segment — the dictionary, then the prefix fit.
func BenchmarkBuildStringSegment(b *testing.B) {
	keys := []string(data.DocIDs(200_000, 1))
	b.Run("dict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := keycodec.BuildDict(keys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("segment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := buildStringSegment(0, 0, keys, core.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
