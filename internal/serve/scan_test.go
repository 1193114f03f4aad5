package serve

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/scan"
)

// scanAll drains Store.Scan into a slice.
func scanAll(s *Store, lo, hi uint64) []uint64 {
	it := s.Scan(lo, hi)
	defer it.Close()
	var out []uint64
	for it.Next() {
		out = append(out, it.Key())
	}
	return out
}

// modelRange filters a model key set down to the sorted keys in [lo, hi)
// when bounded, keys >= lo otherwise.
func modelRange(model map[uint64]bool, lo, hi uint64, bounded bool) []uint64 {
	out := []uint64{}
	for k := range model {
		if k >= lo && (!bounded || k < hi) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// TestScanOracleRandom drives an in-memory store through random
// interleavings of Insert and Flush, checking after every step that
// Scan(lo, hi) streams exactly the sorted distinct union of everything
// inserted so far — buffered or merged — and that CountRange and ScanBatch
// agree with it, as ScanFrom and CountFrom do from lo to the end, the
// maximal key included.
func TestScanOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	initial := data.Uniform(20_000, 2_000_000, 11)
	model := map[uint64]bool{}
	for _, k := range initial {
		model[k] = true
	}
	s := New(initial, core.Config{}, Options{MergeThreshold: 1 << 30}) // drains only via Flush
	defer s.Close()

	for step := 0; step < 60; step++ {
		switch rng.Intn(4) {
		case 0: // burst of fresh inserts
			for i := 0; i < 300; i++ {
				k := rng.Uint64() % 2_100_000
				s.Insert(k)
				model[k] = true
			}
		case 1: // re-inserts of existing keys (dup pressure on the delta)
			for _, k := range data.SampleExisting(initial, 200, int64(step)) {
				s.Insert(k)
				model[k] = true
			}
		case 2:
			s.Flush()
		}
		if step == 7 {
			s.Insert(^uint64(0))
			model[^uint64(0)] = true
		}
		lo := rng.Uint64() % 2_000_000
		hi := lo + rng.Uint64()%500_000
		want := modelRange(model, lo, hi, true)
		if got := scanAll(s, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("step %d: Scan[%d,%d) = %d keys, want %d", step, lo, hi, len(got), len(want))
		}
		if got := s.ScanBatch(lo, hi, nil); !slices.Equal(got, want) {
			t.Fatalf("step %d: ScanBatch[%d,%d) = %d keys, want %d", step, lo, hi, len(got), len(want))
		}
		if got := s.CountRange(lo, hi); got != len(want) {
			t.Fatalf("step %d: CountRange(%d,%d) = %d, want %d", step, lo, hi, got, len(want))
		}
		checkFrom(t, s, model, step, lo)
	}
	// Full-domain invariants.
	if got, want := s.CountRange(0, ^uint64(0)), len(modelRange(model, 0, ^uint64(0), true)); got != want {
		t.Fatalf("CountRange(full) = %d, want %d", got, want)
	}
	checkFrom(t, s, model, -1, 0)
}

// checkFrom checks ScanFrom(lo) and CountFrom(lo) against the model.
func checkFrom(t *testing.T, s *Store, model map[uint64]bool, step int, lo uint64) {
	t.Helper()
	want := modelRange(model, lo, 0, false)
	if got := drainScan(s.ScanFrom(lo), nil); !slices.Equal(got, want) {
		t.Fatalf("step %d: ScanFrom(%d) = %d keys, want %d", step, lo, len(got), len(want))
	}
	if got := s.CountFrom(lo); got != len(want) {
		t.Fatalf("step %d: CountFrom(%d) = %d, want %d", step, lo, got, len(want))
	}
}

// TestScanOraclePersistent is the same oracle over a persistent store, with
// a tiny merge threshold and compaction fanout so scans race real segment
// flushes and compactions.
func TestScanOraclePersistent(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	s, err := Open(nil, core.Config{}, Options{
		Dir: t.TempDir(), MergeThreshold: 2_000, CompactFanout: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	model := map[uint64]bool{}
	for step := 0; step < 40; step++ {
		for i := 0; i < 400; i++ {
			k := rng.Uint64() % 1_000_000
			s.Insert(k)
			model[k] = true
		}
		if step == 7 {
			s.Insert(^uint64(0))
			model[^uint64(0)] = true
		}
		if step%3 == 2 {
			s.Flush()
		}
		lo := rng.Uint64() % 1_000_000
		hi := lo + rng.Uint64()%300_000
		want := modelRange(model, lo, hi, true)
		if got := scanAll(s, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("step %d: Scan[%d,%d) = %d keys, want %d", step, lo, hi, len(got), len(want))
		}
		if got := s.CountRange(lo, hi); got != len(want) {
			t.Fatalf("step %d: CountRange(%d,%d) = %d, want %d", step, lo, hi, got, len(want))
		}
		checkFrom(t, s, model, step, lo)
	}
	if got, want := s.CountRange(0, ^uint64(0)), len(modelRange(model, 0, ^uint64(0), true)); got != want {
		t.Fatalf("CountRange(full) = %d, want %d", got, want)
	}
	checkFrom(t, s, model, -1, 0)
}

// TestScanSeesBufferedInserts pins the read-your-writes contract: a key
// whose Insert returned is in the very next Scan and CountRange, before
// any drain makes it visible to the point-read path.
func TestScanSeesBufferedInserts(t *testing.T) {
	s := New(nil, core.Config{}, Options{MergeThreshold: 1 << 30})
	defer s.Close()
	s.Insert(42)
	s.Insert(7)
	s.Insert(42) // duplicate buffered insert
	if got, want := scanAll(s, 0, 100), []uint64{7, 42}; !slices.Equal(got, want) {
		t.Fatalf("scan over buffered = %v, want %v", got, want)
	}
	if got := s.CountRange(0, 100); got != 2 {
		t.Fatalf("CountRange over buffered = %d, want 2", got)
	}
	if s.Contains(42) {
		t.Fatal("point read served a buffered key (drain contract changed?)")
	}
}

// TestScanIsolationFromConcurrentInserts: an open iterator's stream is
// fixed at open — keys inserted after Scan() returns never appear, keys
// inserted before always do.
func TestScanIsolationFromConcurrentInserts(t *testing.T) {
	initial := data.Uniform(10_000, 1_000_000, 21)
	s := New(initial, core.Config{}, Options{MergeThreshold: 512})
	defer s.Close()
	it := s.Scan(0, ^uint64(0))
	defer it.Close()
	// Mutate heavily after the scan opened.
	for i := 0; i < 5_000; i++ {
		s.Insert(uint64(2_000_000 + i))
	}
	s.Flush()
	want := sortedDistinct(initial)
	var got []uint64
	for it.Next() {
		got = append(got, it.Key())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("open scan saw post-open mutations: %d keys, want %d", len(got), len(want))
	}
}

// TestScanStressConcurrentMergesAndCompaction is the -race stress: scanners
// stream while writers insert and flush (persistent: segment flushes +
// compactions; in-memory: the same engine's drains, spills and
// compactions on vfs.Discard). Every scan must be
// sorted, distinct, in-range, and a superset of the pre-seeded committed
// set — and never contain a key nobody inserted.
func TestScanStressConcurrentMergesAndCompaction(t *testing.T) {
	for _, mode := range []string{"inmemory", "persistent"} {
		t.Run(mode, func(t *testing.T) {
			seed := data.Uniform(30_000, 1_000_000, 33)
			opt := Options{MergeThreshold: 1_000}
			if mode == "persistent" {
				opt = Options{Dir: t.TempDir(), MergeThreshold: 1_000, CompactFanout: 2}
			}
			s, err := Open(seed, core.Config{}, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Flush()
			seedSorted := sortedDistinct(seed)

			var stop atomic.Bool
			var writeWG, scanWG sync.WaitGroup
			// Writers: fresh keys above the seed domain, plus flushes. They
			// run until the scanners have finished their fixed iterations,
			// so every scan races live drains/flushes/compactions.
			for w := 0; w < 2; w++ {
				writeWG.Add(1)
				go func(w int) {
					defer writeWG.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; !stop.Load(); i++ {
						s.Insert(2_000_000 + rng.Uint64()%1_000_000)
						if i%500 == 499 {
							s.Flush()
						}
					}
				}(w)
			}
			// Scanners: verify invariants over the seed domain and the full
			// domain.
			for r := 0; r < 2; r++ {
				scanWG.Add(1)
				go func(r int) {
					defer scanWG.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					for iter := 0; iter < 30; iter++ {
						// Seed-domain scans see exactly the seed (writers only
						// add above it).
						lo := rng.Uint64() % 500_000
						hi := lo + rng.Uint64()%500_000
						got := scanAll(s, lo, hi)
						a := oracle(seedSorted, lo)
						b := oracle(seedSorted, hi)
						if !slices.Equal(got, seedSorted[a:b]) {
							t.Errorf("seed-domain scan [%d,%d) diverged: %d vs %d keys", lo, hi, len(got), b-a)
							return
						}
						if c := s.CountRange(lo, hi); c != b-a {
							t.Errorf("seed-domain CountRange(%d,%d) = %d, want %d", lo, hi, c, b-a)
							return
						}
						// Full scans: sorted, distinct, superset of the seed.
						full := scanAll(s, 0, ^uint64(0))
						if !slices.IsSorted(full) {
							t.Error("full scan unsorted")
							return
						}
						for i := 1; i < len(full); i++ {
							if full[i] == full[i-1] {
								t.Errorf("full scan duplicate %d", full[i])
								return
							}
						}
						if len(full) < len(seedSorted) {
							t.Errorf("full scan lost seed keys: %d < %d", len(full), len(seedSorted))
							return
						}
					}
				}(r)
			}
			scanWG.Wait()
			stop.Store(true)
			writeWG.Wait()
		})
	}
}

// sortedDistinct clones, sorts, and dedups a key set.
func sortedDistinct(keys []uint64) []uint64 {
	s := slices.Clone(keys)
	slices.Sort(s)
	return slices.Compact(s)
}

// TestScanAllocs asserts the steady-state allocation budget of an open →
// drain → close cycle on a warm store of each key mode, in memory and
// persistent: within 2 allocations for a uint64 scan (the pools make it 0
// in practice; 2 is the documented ceiling), and for a string scan within
// one per page its segment's cursor materializes plus the same 2.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	keys := data.Uniform(50_000, 5_000_000, 77)
	strs := make([]string, len(keys))
	for i, k := range keys {
		strs[i] = metricsKey(k)
	}
	for _, mode := range []string{"inmemory", "persistent"} {
		opt := func(t *testing.T) Options {
			if mode == "persistent" {
				return Options{Dir: t.TempDir()}
			}
			return Options{MergeThreshold: 1 << 30}
		}
		t.Run(mode, func(t *testing.T) {
			t.Run("uint64", func(t *testing.T) {
				s, err := Open(keys, core.Config{}, opt(t))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				s.Flush()
				for i := 0; i < 200; i++ {
					s.Insert(uint64(6_000_000 + i)) // a live delta layer
				}
				checkScanAllocs(t, func() *scan.Iterator[uint64] { return s.Scan(1_000_000, 1_200_000) },
					func(int) int { return 2 })
			})
			t.Run("string", func(t *testing.T) {
				s, err := OpenString(strs, core.Config{}, opt(t))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				s.Flush()
				for i := uint64(0); i < 200; i++ {
					s.InsertString(metricsKey(6_000_000 + i)) // a live delta layer
				}
				lo, hi := metricsKey(1_000_000), metricsKey(1_200_000)
				checkScanAllocs(t, func() *scan.Iterator[string] { return s.ScanString(lo, hi) },
					func(n int) int { return stringPages(n) + 2 })
			})
		})
	}
}

// checkScanAllocs drains the scans open returns, once to warm every pool,
// then asserts a cycle's average allocations stay within budget(n) for the
// n keys it streams.
func checkScanAllocs[K cmp.Ordered](t *testing.T, open func() *scan.Iterator[K], budget func(n int) int) {
	t.Helper()
	n := 0
	run := func() {
		it := open()
		for n = 0; it.Next(); n++ {
		}
		it.Close()
	}
	run()
	if avg, want := testing.AllocsPerRun(100, run), budget(n); n == 0 || avg > float64(want) {
		t.Fatalf("steady-state scan of %d keys allocates %.1f per cycle, want <= %d", n, avg, want)
	}
}

// stringPages is how many pages a core.StringCursor materializes to
// stream n keys: the first holds 16, and each next one doubles, up to 256.
func stringPages(n int) int {
	pages := 0
	for size := 16; n > 0; size = min(2*size, 256) {
		n -= size
		pages++
	}
	return pages
}

// TestCountRangeSteadyState: the learned COUNT path is pooled too.
func TestCountRangeSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	keys := data.Uniform(50_000, 5_000_000, 79)
	s := New(keys, core.Config{}, Options{})
	defer s.Close()
	var sink int
	run := func() { sink += s.CountRange(1_000_000, 4_000_000) }
	run()
	if avg := testing.AllocsPerRun(100, run); avg > 2 {
		t.Fatalf("steady-state CountRange allocates %.1f, want <= 2", avg)
	}
	_ = sink
}

// TestScanSeek exercises repositioning against the composed store view.
func TestScanSeek(t *testing.T) {
	s := New([]uint64{10, 20, 30, 40, 50}, core.Config{}, Options{MergeThreshold: 1 << 30})
	defer s.Close()
	s.Insert(25) // buffered: the delta layer participates in seeks
	it := s.Scan(15, 45)
	defer it.Close()
	if !it.Seek(21) || it.Key() != 25 {
		t.Fatalf("Seek(21) = %d (valid=%v), want 25", it.Key(), it.Valid())
	}
	if !it.Next() || it.Key() != 30 {
		t.Fatalf("Next = %d, want 30", it.Key())
	}
	if !it.Seek(0) || it.Key() != 20 {
		t.Fatalf("Seek(0) clamps to lo: got %d, want 20", it.Key())
	}
	if it.Seek(45) {
		t.Fatalf("Seek(45) past hi should exhaust, got %d", it.Key())
	}
}
