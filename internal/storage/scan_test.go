package storage

import (
	"math/rand"
	"os"
	"slices"
	"sync/atomic"
	"testing"

	"learnedindex/internal/data"
	"learnedindex/internal/scan"
)

// drainSnapshot merges a snapshot's delta + segment cursors through the
// scan iterator, exactly as the serving layer composes them.
func drainSnapshot(sn *Snapshot, lo, hi uint64) []uint64 {
	it := scan.Get[uint64]()
	if p := sn.Pending(); len(p) > 0 {
		c := new(scan.KeysCursor[uint64])
		c.Reset(p, nil)
		it.Add(c) // newest layer first
	}
	for i := 0; i < sn.NumSegments(); i++ {
		if ks, plan := sn.SegmentKeys(i, lo, hi); ks != nil {
			c := new(scan.KeysCursor[uint64])
			c.Reset(ks, plan)
			it.Add(c)
		}
	}
	it.Start(lo, hi, nil)
	defer it.Close()
	var out []uint64
	for it.Next() {
		out = append(out, it.Key())
	}
	return out
}

// refRange filters a sorted deduplicated union down to [lo, hi).
func refRange(all []uint64, lo, hi uint64) []uint64 {
	s := slices.Clone(all)
	slices.Sort(s)
	s = slices.Compact(s)
	out := s[:0:0]
	for _, k := range s {
		if k >= lo && k < hi {
			out = append(out, k)
		}
	}
	return out
}

// TestSnapshotScanOracle drives the engine through appends, drains,
// flushes, and compactions, checking after every step that a snapshot scan
// streams exactly the sorted deduplicated union of segments (the resident
// run among them) + unflushed delta for random ranges, and that CountRange
// agrees with the streamed count.
func TestSnapshotScanOracle(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{CompactFanout: 2, NoCompactor: true})
	defer e.Close()
	rng := rand.New(rand.NewSource(31))
	var all []uint64

	check := func(step string) {
		t.Helper()
		sn := e.AcquireSnapshot()
		defer sn.Release()
		for trial := 0; trial < 5; trial++ {
			lo := rng.Uint64() % 1_200_000
			hi := lo + rng.Uint64()%400_000
			got := drainSnapshot(sn, lo, hi)
			want := refRange(all, lo, hi)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: scan [%d,%d) got %d keys, want %d", step, lo, hi, len(got), len(want))
			}
			if c := sn.CountRange(lo, hi); c != len(want) {
				t.Fatalf("%s: CountRange(%d,%d) = %d, want %d", step, lo, hi, c, len(want))
			}
		}
		// Full-range scan too.
		if got, want := drainSnapshot(sn, 0, ^uint64(0)), refRange(all, 0, ^uint64(0)); !slices.Equal(got, want) {
			t.Fatalf("%s: full scan %d keys, want %d", step, len(got), len(want))
		}
	}

	for round := 0; round < 6; round++ {
		batch := data.Uniform(3_000, 1_000_000, int64(100+round))
		e.Append(batch...)
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
	sn := e.AcquireSnapshot()
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
	if got, want := drainSnapshot(sn, 0, ^uint64(0)), refRange(e.Keys(), 0, ^uint64(0)); !slices.Equal(got, want) {
		t.Fatalf("pinned scan diverged: %d vs %d keys", len(got), len(want))
	}
	sn.Release()
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
			if got, want := e.CountRange(0, ^uint64(0)), rounds*perRound; got != want {
				t.Fatalf("final CountRange = %d, want %d", got, want)
			}
			if st := e.Stats(); st.Drains == 0 || st.Flushes == 0 {
				t.Fatalf("the writer never drained or never flushed: %+v", st)
			}
			return
		default:
			floor := int(appended.Load())
			c := e.CountRange(0, ^uint64(0))
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
