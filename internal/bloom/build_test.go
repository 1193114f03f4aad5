package bloom

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"learnedindex/internal/data"
)

// TestBuildBlockedMatchesPerKeyAdd: the batched, split build is the per-key
// loop bit for bit — same encoding, same count — at sizes on both sides of
// a hash batch and of the storage engine's parallel-build floor, with one
// worker, with two and with more than the cap, for both key kinds.
func TestBuildBlockedMatchesPerKeyAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 255, 256, 257, 65535, 65536, 131075} {
		u := make([]uint64, n)
		s := make([]string, n)
		for i := range u {
			u[i] = rng.Uint64()
			s[i] = fmt.Sprintf("doc/%x", rng.Uint64())
		}
		wantU, wantS := NewBlocked(n, 0.01), NewBlocked(n, 0.01)
		for i := range u {
			wantU.AddUint64(u[i])
			wantS.Add(s[i])
		}
		for _, workers := range []int{1, 2, 8} {
			if got := BuildBlocked(u, 0.01, HashUint64, workers); !slices.Equal(got.AppendBinary(nil), wantU.AppendBinary(nil)) {
				t.Fatalf("n=%d workers=%d: uint64 filter differs from per-key AddUint64", n, workers)
			}
			if got := BuildBlocked(s, 0.01, HashString, workers); !slices.Equal(got.AppendBinary(nil), wantS.AppendBinary(nil)) {
				t.Fatalf("n=%d workers=%d: string filter differs from per-key Add", n, workers)
			}
		}
	}
}

// TestBuildBlockedMemoryBounded: however many workers a caller asks for —
// the storage engine asks for one per core — the build allocates the
// filter and at most one more filter-sized array, never one per worker.
func TestBuildBlockedMemoryBounded(t *testing.T) {
	keys := make([]uint64, 1<<20)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	filterBytes := uint64(NewBlocked(len(keys), 0.01).SizeBytes())
	const slack = 64 << 10 // the filter struct, the parts slice, goroutine closures
	for _, workers := range []int{1, 2, 8, 64} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		BuildBlocked(keys, 0.01, HashUint64, workers)
		runtime.ReadMemStats(&after)
		arrays := uint64(min(workers, 2))
		if got := after.TotalAlloc - before.TotalAlloc; got > arrays*filterBytes+slack {
			t.Fatalf("workers=%d: build allocated %d bytes, want <= %d filter arrays of %d bytes", workers, got, arrays, filterBytes)
		}
	}
}

// BenchmarkBloomBuild prices the filter build of a 2M-key segment: the
// per-key AddUint64 loop it replaced against BuildBlocked on one and two
// workers (compare the two with -cpu 2 or more).
func BenchmarkBloomBuild(b *testing.B) {
	keys := data.LognormalPaper(2_000_000, 1)
	b.Run("perkey", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := NewBlocked(len(keys), 0.01)
			for _, k := range keys {
				f.AddUint64(k)
			}
		}
	})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("batched/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildBlocked(keys, 0.01, HashUint64, workers)
			}
		})
	}
}
