package scan

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refMerge is the oracle: sorted deduplicated union of all sources,
// restricted to [lo, hi).
func refMerge(sources [][]uint64, lo, hi uint64) []uint64 {
	var all []uint64
	for _, s := range sources {
		all = append(all, s...)
	}
	slices.Sort(all)
	all = slices.Compact(all)
	out := all[:0:0]
	for _, k := range all {
		if k >= lo && k < hi {
			out = append(out, k)
		}
	}
	return out
}

// collect drains an iterator over fresh KeysCursors built from sources.
func collect(t *testing.T, sources [][]uint64, lo, hi uint64) []uint64 {
	t.Helper()
	it := Get[uint64]()
	for _, s := range sources {
		c := new(KeysCursor[uint64])
		c.Reset(s, nil)
		it.Add(c)
	}
	it.Start(lo, hi, nil)
	defer it.Close()
	var got []uint64
	for it.Next() {
		got = append(got, it.Key())
	}
	return got
}

func TestMergeOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(7) // 0..6 sources
		sources := make([][]uint64, k)
		for i := range sources {
			n := rng.Intn(50)
			s := make([]uint64, n)
			for j := range s {
				s[j] = uint64(rng.Intn(120)) // dense domain => heavy overlap
			}
			slices.Sort(s)
			sources[i] = slices.Compact(s)
		}
		lo := uint64(rng.Intn(100))
		hi := lo + uint64(rng.Intn(60))
		got := collect(t, sources, lo, hi)
		want := refMerge(sources, lo, hi)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: scan [%d,%d) = %v, want %v", trial, lo, hi, got, want)
		}
	}
}

func TestMergeEdgeShapes(t *testing.T) {
	// No cursors at all.
	if got := collect(t, nil, 0, 100); len(got) != 0 {
		t.Fatalf("empty iterator produced %v", got)
	}
	// One cursor, empty range, inverted range.
	src := [][]uint64{{1, 5, 9}}
	if got := collect(t, src, 6, 6); len(got) != 0 {
		t.Fatalf("empty range produced %v", got)
	}
	if got := collect(t, src, 9, 5); len(got) != 0 {
		t.Fatalf("inverted range produced %v", got)
	}
	if got, want := collect(t, src, 0, ^uint64(0)), []uint64{1, 5, 9}; !slices.Equal(got, want) {
		t.Fatalf("full scan = %v, want %v", got, want)
	}
	// All-duplicate sources collapse to one stream.
	dup := [][]uint64{{2, 4, 6}, {2, 4, 6}, {2, 4, 6}}
	if got, want := collect(t, dup, 0, 100), []uint64{2, 4, 6}; !slices.Equal(got, want) {
		t.Fatalf("dup merge = %v, want %v", got, want)
	}
}

func TestIteratorSeek(t *testing.T) {
	sources := [][]uint64{{1, 4, 7, 10, 13}, {2, 4, 8, 10, 14}}
	it := Get[uint64]()
	for _, s := range sources {
		c := new(KeysCursor[uint64])
		c.Reset(s, nil)
		it.Add(c)
	}
	it.Start(2, 14, nil)
	defer it.Close()

	if !it.Seek(7) || it.Key() != 7 {
		t.Fatalf("Seek(7): valid=%v key=%d", it.Valid(), it.Key())
	}
	if !it.Next() || it.Key() != 8 {
		t.Fatalf("Next after Seek(7) = %d", it.Key())
	}
	// Backward seek, to a key below lo: clamps to lo.
	if !it.Seek(0) || it.Key() != 2 {
		t.Fatalf("Seek(0) should clamp to lo=2, got %d (valid=%v)", it.Key(), it.Valid())
	}
	// Seek to a gap lands on the next key.
	if !it.Seek(5) || it.Key() != 7 {
		t.Fatalf("Seek(5) = %d, want 7", it.Key())
	}
	// Seek past the range end.
	if it.Seek(14) {
		t.Fatalf("Seek(14) should be exhausted (hi=14), got %d", it.Key())
	}
}

func TestNextBatchMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sources := make([][]uint64, 4)
	for i := range sources {
		s := make([]uint64, 500)
		for j := range s {
			s[j] = uint64(rng.Intn(5000))
		}
		slices.Sort(s)
		sources[i] = slices.Compact(s)
	}
	want := refMerge(sources, 100, 4000)

	it := Get[uint64]()
	for _, s := range sources {
		c := new(KeysCursor[uint64])
		c.Reset(s, nil)
		it.Add(c)
	}
	it.Start(100, 4000, nil)
	defer it.Close()
	var got []uint64
	buf := make([]uint64, 37) // odd batch size exercises short fills
	for {
		n := it.NextBatch(buf)
		got = append(got, buf[:n]...)
		if n < len(buf) {
			break
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("NextBatch drain: got %d keys, want %d", len(got), len(want))
	}
}

// fakePositioner counts Lookup calls and answers with sort.Search, standing
// in for a compiled plan.
type fakePositioner struct {
	keys  []uint64
	calls int
}

func (f *fakePositioner) Lookup(key uint64) int {
	f.calls++
	return sort.Search(len(f.keys), func(i int) bool { return f.keys[i] >= key })
}

func TestKeysCursorModelBiasedEntry(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(3*i + 1)
	}
	fp := &fakePositioner{keys: keys}
	var c KeysCursor[uint64]
	c.Reset(keys, fp)
	if !c.Seek(301) || c.Key() != 301 {
		t.Fatalf("Seek(301) = %d", c.Key())
	}
	if fp.calls != 1 {
		t.Fatalf("positioner used %d times, want 1", fp.calls)
	}
	if !c.Next() || c.Key() != 304 {
		t.Fatalf("Next = %d", c.Key())
	}
	// Without a positioner, same semantics via binary search.
	var b KeysCursor[uint64]
	b.Reset(keys, nil)
	if !b.Seek(302) || b.Key() != 304 {
		t.Fatalf("binary Seek(302) = %d", b.Key())
	}
}

type countingCloser struct{ n int }

func (c *countingCloser) CloseScan() { c.n++ }

func TestCloseReleasesAndIsIdempotent(t *testing.T) {
	var cc countingCloser
	it := Get[uint64]()
	c := new(KeysCursor[uint64])
	c.Reset([]uint64{1, 2, 3}, nil)
	it.Add(c)
	it.Start(0, 10, &cc)
	if !it.Next() {
		t.Fatal("Next = false")
	}
	it.Close()
	it.Close()
	if cc.n != 1 {
		t.Fatalf("closer ran %d times, want 1", cc.n)
	}
	if c.keys != nil {
		t.Fatal("cursor not released")
	}
}

func TestIteratorPoolSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sources := [][]uint64{{1, 2, 3, 4, 5}, {3, 4, 5, 6, 7}, {7, 8, 9}}
	cursors := make([]KeysCursor[uint64], len(sources))
	run := func() {
		it := Get[uint64]()
		for i := range sources {
			cursors[i].Reset(sources[i], nil)
			it.Add(&cursors[i])
		}
		it.Start(0, 100, nil)
		for it.Next() {
		}
		it.Close()
	}
	run() // warm the pool
	if avg := testing.AllocsPerRun(200, run); avg > 0 {
		t.Fatalf("steady-state iterator allocates %.1f per scan, want 0", avg)
	}
}

// TestMergeRunsMatchesSortCompact: MergeRuns equals sorting the runs'
// concatenation and dropping duplicates, over random runs that overlap,
// repeat keys within a run, or are empty, and into an array of exact size.
func TestMergeRunsMatchesSortCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		runs := make([][]uint64, rng.Intn(9))
		var all []uint64
		for i := range runs {
			run := make([]uint64, rng.Intn(40)) // empty one time in forty
			span := uint64(1 + rng.Intn(200))   // small spans overlap and repeat
			for j := range run {
				run[j] = uint64(rng.Int63n(int64(span)))
			}
			slices.Sort(run)
			runs[i] = run
			all = append(all, run...)
		}
		slices.Sort(all)
		want := slices.Compact(all)
		got := MergeRuns(runs)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: MergeRuns = %v, want %v", trial, got, want)
		}
	}
	if got := MergeRuns[string](nil); len(got) != 0 {
		t.Fatalf("MergeRuns(nil) = %v", got)
	}
	if got := MergeRuns([][]string{{"a", "c"}, {}, {"b", "c", "d"}}); !slices.Equal(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("string runs merge to %v", got)
	}
}
