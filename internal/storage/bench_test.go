package storage

import (
	"slices"
	"sync/atomic"
	"testing"

	"learnedindex/internal/bloom"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
)

// benchEngine builds a multi-segment engine under b.TempDir once.
func benchEngine(b *testing.B, n, batches int) (*Engine, []uint64) {
	b.Helper()
	keys := data.Maps(n, 1)
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
	return e, keys
}

func BenchmarkEngineContainsHit(b *testing.B) {
	e, keys := benchEngine(b, 200_000, 4)
	probes := data.SampleExisting(keys, 1<<14, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Contains(probes[i&(1<<14-1)]) {
			b.Fatal("lost key")
		}
	}
}

func BenchmarkEngineContainsMiss(b *testing.B) {
	e, keys := benchEngine(b, 200_000, 4)
	probes := data.SampleMissing(keys, 1<<14, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Contains(probes[i&(1<<14-1)]) {
			b.Fatal("phantom key")
		}
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

// BenchmarkBuildSegment prices the build of a 2M-key lognormal segment —
// the disk-mixed preload's — as it was, the model fit and then a per-key
// filter loop, against buildSegment, which on two or more CPUs runs the
// fit beside a batched filter build on as many workers. Both must encode
// to the same image; compare the two with -cpu 2 or more.
func BenchmarkBuildSegment(b *testing.B) {
	keys := dedupSorted(data.LognormalPaper(2_000_000, 1))
	sequential := func() *segment {
		rmi := core.New(keys, core.Config{})
		filter := bloom.NewBlocked(len(keys), 0.01)
		for _, k := range keys {
			filter.AddUint64(k)
		}
		return &segment{keys: keys, rmi: rmi, plan: rmi.Plan(), filter: filter}
	}
	overlapped := func() *segment { return buildSegment(0, 0, keys, core.Config{}, 0.01) }
	want, err := encodeLiveSegment(sequential())
	if err != nil {
		b.Fatal(err)
	}
	if got, err := encodeLiveSegment(overlapped()); err != nil || !slices.Equal(got, want) {
		b.Fatalf("the overlapped build encodes a different image (err %v)", err)
	}
	for _, c := range []struct {
		name  string
		build func() *segment
	}{{"sequential", sequential}, {"overlapped", overlapped}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.build()
			}
		})
	}
}
