package storage

import (
	"cmp"
	"math/rand"
	"os"
	"slices"
	"sync/atomic"
	"testing"

	"learnedindex/internal/data"
)

// pinAll acquires a snapshot of e's whole view.
func pinAll[K cmp.Ordered](e *Engine) *snapshot {
	var zero K
	return acquireSnapshot(planeOf[K](e), zero, zero, false)
}

// drainSnapshot collects what the engine's scan composition streams out of
// sn, which the caller keeps holding: [lo, hi) when bounded, keys >= lo
// otherwise.
func drainSnapshot[K cmp.Ordered](sn *snapshot, ops *keyOps[K], lo, hi K, bounded bool) []K {
	it := scanSnapshot(sn, ops, lo, hi, bounded, false)
	defer it.Close()
	var out []K
	for it.Next() {
		out = append(out, it.Key())
	}
	return out
}

// refRange filters a sorted deduplicated union down to [lo, hi) when
// bounded, to keys >= lo otherwise.
func refRange[K cmp.Ordered](all []K, lo, hi K, bounded bool) []K {
	s := slices.Clone(all)
	slices.Sort(s)
	s = slices.Compact(s)
	out := s[:0:0]
	for _, k := range s {
		if k >= lo && (!bounded || k < hi) {
			out = append(out, k)
		}
	}
	return out
}

// oracleMode is what TestSnapshotScanOracle needs of one key mode.
type oracleMode[K cmp.Ordered] struct {
	opts   Options
	batch  func(round int) []K         // the keys one round appends
	bounds func(rng *rand.Rand) (K, K) // a random scan range, lo <= hi
	append func(e *Engine, keys []K) error
	ops    *keyOps[K]
}

// TestSnapshotScanOracle drives the engine, in each key mode, through
// appends, drains, flushes, and compactions, checking after every step that
// the engine's scan composition (scanSnapshot) streams exactly the sorted
// deduplicated union of segments (the resident run among them) + unflushed
// delta for random ranges, and that the learned count (countRange, bounded
// and open-ended) agrees with the streamed count.
func TestSnapshotScanOracle(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		snapshotScanOracle(t, oracleMode[uint64]{
			opts: Options{CompactFanout: 2, NoCompactor: true},
			// The maximal key is drawn too: pending after round 0, then in
			// a segment; only the open-ended form reaches it.
			batch: func(round int) []uint64 {
				return append(data.Uniform(3_000, 1_000_000, int64(100+round)), ^uint64(0)-uint64(round%2))
			},
			bounds: func(rng *rand.Rand) (uint64, uint64) {
				lo := rng.Uint64() % 1_200_000
				return lo, lo + rng.Uint64()%400_000
			},
			append: func(e *Engine, keys []uint64) error { return e.AppendBatch(keys) },
			ops:    &u64Ops,
		})
	})
	t.Run("string", func(t *testing.T) {
		// Bounds come from keys of the same shapes, mostly not stored.
		pool := stringTestKeys(2_000, 99)
		snapshotScanOracle(t, oracleMode[string]{
			opts:  Options{StringKeys: true, CompactFanout: 2, NoCompactor: true},
			batch: func(round int) []string { return stringTestKeys(3_000, int64(100+round)) },
			bounds: func(rng *rand.Rand) (string, string) {
				a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
				return min(a, b), max(a, b)
			},
			append: func(e *Engine, keys []string) error { return e.AppendStringBatch(keys) },
			ops:    &strOps,
		})
	})
}

func snapshotScanOracle[K cmp.Ordered](t *testing.T, m oracleMode[K]) {
	dir := t.TempDir()
	e := openT(t, dir, m.opts)
	defer e.Close()
	rng := rand.New(rand.NewSource(31))
	var all []K

	check := func(step string) {
		t.Helper()
		sn := pinAll[K](e)
		defer sn.release()
		for trial := 0; trial < 5; trial++ {
			lo, hi := m.bounds(rng)
			for _, bounded := range []bool{true, false} {
				got := drainSnapshot(sn, m.ops, lo, hi, bounded)
				want := refRange(all, lo, hi, bounded)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: scan [%v,%v) bounded=%v got %d keys, want %d", step, lo, hi, bounded, len(got), len(want))
				}
				if c := countRange(sn, m.ops, lo, hi, bounded); c != len(want) {
					t.Fatalf("%s: count [%v,%v) bounded=%v = %d, want %d", step, lo, hi, bounded, c, len(want))
				}
			}
		}
		// Full-range scan too.
		var zero K
		if got, want := drainSnapshot(sn, m.ops, zero, zero, false), refRange(all, zero, zero, false); !slices.Equal(got, want) {
			t.Fatalf("%s: full scan %d keys, want %d", step, len(got), len(want))
		}
	}

	for round := 0; round < 6; round++ {
		batch := m.batch(round)
		if err := m.append(e, batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
		check("append")
		if round%2 == 1 {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			check("flush")
		} else if round > 0 {
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			check("drain")
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compact")
}

// TestSnapshotPinsCompactionInputs is the deferred-deletion contract: while
// a scan snapshot is open, compaction swaps the live list but must not
// delete the pinned input files; the last Release sweeps them.
func TestSnapshotPinsCompactionInputs(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{CompactFanout: 2, NoCompactor: true})
	defer e.Close()
	for i := 0; i < 4; i++ {
		e.Append(data.Uniform(2_000, 1_000_000, int64(i+1))...)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	sn := pinAll[uint64](e)
	var pinnedPaths []string
	for _, s := range sn.segs {
		pinnedPaths = append(pinnedPaths, s.path)
	}
	if len(pinnedPaths) < 2 {
		t.Fatalf("want >=2 segments before compaction, got %d", len(pinnedPaths))
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := len(*e.segs.Load()); got >= len(pinnedPaths) {
		t.Fatalf("compaction did not shrink the live list: %d -> %d", len(pinnedPaths), got)
	}
	for _, p := range pinnedPaths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("pinned segment file %s deleted mid-scan: %v", p, err)
		}
	}
	// The pinned view still serves the pre-compaction state.
	if got, want := drainSnapshot(sn, &u64Ops, 0, ^uint64(0), true), refRange(e.Keys(), 0, ^uint64(0), true); !slices.Equal(got, want) {
		t.Fatalf("pinned scan diverged: %d vs %d keys", len(got), len(want))
	}
	sn.release()
	deleted := 0
	for _, p := range pinnedPaths {
		if _, err := os.Stat(p); os.IsNotExist(err) {
			deleted++
		}
	}
	if deleted == 0 {
		t.Fatal("release swept no compacted-away files")
	}
}

// TestCountRangeEngineMidFlushConsistency hammers CountRange while another
// goroutine appends, drains and flushes: a key is counted at every instant
// of its way from pending through flushing and the resident run to a file,
// so the counts never step back (monotonic visibility — nothing acked ever
// vanishes mid-flush) and never pass what was appended.
func TestCountRangeEngineMidFlushConsistency(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{NoCompactor: true})
	defer e.Close()
	const rounds = 30
	const perRound = 500
	var appended atomic.Int64 // keys whose Append has returned
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < rounds; r++ {
			base := uint64(r*perRound) * 10
			batch := make([]uint64, perRound)
			for i := range batch {
				batch[i] = base + uint64(i)*10
			}
			e.Append(batch...)
			appended.Store(int64((r + 1) * perRound))
			if r%3 == 2 {
				e.Flush()
			} else {
				e.Drain()
			}
		}
	}()
	last := 0
	for {
		select {
		case <-done:
			if got, want := e.CountRange(0, ^uint64(0), true), rounds*perRound; got != want {
				t.Fatalf("final CountRange = %d, want %d", got, want)
			}
			if st := e.Stats(); st.Drains == 0 || st.Flushes == 0 {
				t.Fatalf("the writer never drained or never flushed: %+v", st)
			}
			return
		default:
			floor := int(appended.Load())
			c := e.CountRange(0, ^uint64(0), true)
			if c > rounds*perRound {
				t.Fatalf("CountRange invented keys: %d > %d", c, rounds*perRound)
			}
			if c < floor || c < last {
				t.Fatalf("CountRange = %d with %d keys appended before it and %d counted before", c, floor, last)
			}
			last = c
		}
	}
}
