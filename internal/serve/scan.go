package serve

// Streaming range scans and learned counts over the serving layer, written
// once for both key kinds: the snapshot-consistent composition of every
// layer of the engine a key can live in.
//
// A scan merges the engine's pending delta — the keys inserted but not yet
// drained, copied and sorted at open — with one cursor per segment (the
// resident run included) whose min/max fence overlaps the range, pinned
// against compaction for the scan's lifetime (storage.Snapshot). A uint64
// segment's cursor walks its key array entered at the position its plan
// predicts for the range start (model-biased seek, not binary search); a
// string segment holds no strings, and its cursor (core.StringCursor)
// materializes the keys it streams out of the segment's dictionary a page
// at a time. A range is [lo, hi) or, unbounded above, [lo, ∞) — its own
// entry point (ScanFrom, ScanStringFrom) rather than a sentinel upper
// bound, in both key kinds: an exclusive uint64 bound can never reach the
// maximal key.
//
// # Consistency
//
// A scan (and CountRange) observes every Insert that returned before the
// call — including still-pending ones the point-read path won't serve
// until the next drain — and nothing that starts after it: the engine
// copies its pending and in-flight keys before it loads the segment list,
// so a key mid-migration between layers is seen in at least one, and the
// merge's newest-wins dedup collapses a key seen in two. After the capture
// the scan is isolated: concurrent inserts, drains, retrains, flushes, and
// compactions never add to, remove from, or reorder an open scan's stream.
//
// # Allocation discipline
//
// All scan state — the iterator, its tournament arrays, cursors and the
// storage snapshot — recycles through pools; a steady-state
// Scan→drain→Close cycle allocates nothing here (asserted by
// TestScanAllocs).

import (
	"cmp"
	"slices"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/scan"
	"learnedindex/internal/storage"
)

// scanState is the pooled per-scan working set: the pinned storage
// snapshot plus the cursors that stream it. It implements scan.Closer, so
// the iterator's Close returns everything here to the pool.
type scanState[K cmp.Ordered] struct {
	ops  *keyOps[K]
	snap *storage.Snapshot
	dc   scan.KeysCursor[K] // streams the pending delta
	// curs holds one cursor per captured index. A slot keeps its cursor
	// across scans, so a string cursor's page keeps the capacity earlier
	// scans grew.
	curs []scan.Cursor[K]
}

// slot extends curs by one and returns the new slot, holding whatever
// cursor an earlier scan left there.
func (st *scanState[K]) slot() *scan.Cursor[K] {
	if len(st.curs) < cap(st.curs) {
		st.curs = st.curs[:len(st.curs)+1]
	} else {
		st.curs = append(st.curs, nil)
	}
	return &st.curs[len(st.curs)-1]
}

// keysCursor points the cursor in slot c at a sorted key array entered
// through pos, reusing the slot's cursor when it is a KeysCursor.
func keysCursor[K cmp.Ordered](c *scan.Cursor[K], keys []K, pos scan.Positioner[K]) {
	kc, ok := (*c).(*scan.KeysCursor[K])
	if !ok {
		kc = new(scan.KeysCursor[K])
		*c = kc
	}
	kc.Reset(keys, pos)
}

// stringCursor points the cursor in slot c at a string index, reusing the
// slot's cursor when it is a StringCursor.
func stringCursor(c *scan.Cursor[string], si *core.StringIndex) {
	sc, ok := (*c).(*core.StringCursor)
	if !ok {
		sc = new(core.StringCursor)
		*c = sc
	}
	sc.Reset(si)
}

func (p *plane[K]) getScan() *scanState[K] {
	if st, ok := p.ops.scans.Get().(*scanState[K]); ok {
		return st
	}
	return &scanState[K]{ops: p.ops}
}

// CloseScan unpins the storage snapshot and recycles the state. Runs via
// Iterator.Close after every cursor has been released.
func (st *scanState[K]) CloseScan() {
	st.snap.Release()
	st.snap = nil
	st.curs = st.curs[:0] // cursor Release already dropped the index refs
	st.ops.scans.Put(st)
}

// scan opens a streaming merge over every key of the range ([lo, hi) when
// bounded, keys >= lo otherwise). Scan opens are cold next to the per-key
// stream, so the open (capture + seed seeks) is timed unconditionally when
// metrics are built in; the per-key path stays untouched — the iterator
// reports its emitted-key count once, at Close, into lix_serve_scan_keys.
func (p *plane[K]) scan(lo, hi K, bounded bool) *scan.Iterator[K] {
	s := p.s
	s.m.scans.Inc()
	var start time.Time
	if obs.Enabled {
		start = time.Now()
	}
	it := scan.Get[K]()
	it.SetObs(s.m.scanKeys)
	st := p.getScan()
	if delta := p.ops.scan(st, s.eng, lo, hi, bounded); len(delta) > 0 {
		st.dc.Reset(delta, nil)
		it.Add(&st.dc) // delta first: the newest layer wins merge ties
	}
	for _, c := range st.curs {
		it.Add(c)
	}
	if bounded {
		it.Start(lo, hi, st)
	} else {
		it.StartFrom(lo, st)
	}
	if obs.Enabled {
		s.m.scanOpen.ObserveDuration(time.Since(start))
	}
	return it
}

// count is CountRange, CountFrom and their string forms: the exact
// number of distinct keys of the range ([lo, hi) when bounded, keys >= lo
// otherwise) over the view a scan at this instant would stream.
func (p *plane[K]) count(lo, hi K, bounded bool) int {
	if bounded && hi <= lo {
		return 0
	}
	return p.ops.count(p.s.eng, lo, hi, bounded)
}

// Scan opens a streaming merge over every key in [lo, hi): ascending,
// deduplicated, snapshot-consistent per the file comment above. The
// iterator starts before the first key — drive it with Next (or NextBatch)
// and always Close it; Seek repositions within the range. hi is exclusive;
// use ScanFrom to scan to the end, the maximal key included.
func (s *Store) Scan(lo, hi uint64) *scan.Iterator[uint64] { return s.u64().scan(lo, hi, true) }

// ScanFrom opens a scan over every key >= lo, to the end of the store.
func (s *Store) ScanFrom(lo uint64) *scan.Iterator[uint64] { return s.u64().scan(lo, 0, false) }

// ScanString opens a streaming merge over every string key in [lo, hi):
// ascending codec (byte) order, deduplicated, snapshot-consistent like
// Scan. hi is exclusive; use ScanStringFrom to scan without an upper
// bound. Always Close the iterator.
func (s *Store) ScanString(lo, hi string) *scan.Iterator[string] {
	return s.str().scan(lo, hi, true)
}

// ScanStringFrom is ScanFrom for string keys.
func (s *Store) ScanStringFrom(lo string) *scan.Iterator[string] {
	return s.str().scan(lo, "", false)
}

// ScanBatch appends every key in [lo, hi) — same view as Scan — to dst and
// returns it, growing dst as needed. The drain runs through the iterator's
// batched fill, so the per-key cost is the amortized tournament pop.
func (s *Store) ScanBatch(lo, hi uint64, dst []uint64) []uint64 {
	return drainScan(s.Scan(lo, hi), dst)
}

// ScanBatchString appends every string key in [lo, hi) — same view as
// ScanString — to dst and returns it.
func (s *Store) ScanBatchString(lo, hi string, dst []string) []string {
	return drainScan(s.ScanString(lo, hi), dst)
}

// drainScan appends everything it streams to dst and closes it.
func drainScan[K cmp.Ordered](it *scan.Iterator[K], dst []K) []K {
	defer it.Close()
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, max(256, cap(dst)))
		}
		free := dst[len(dst):cap(dst)]
		n := it.NextBatch(free)
		dst = dst[:len(dst)+n]
		if n < len(free) {
			return dst
		}
	}
}

// CountRange returns the exact number of distinct keys in [lo, hi) over
// the same view a Scan at this instant would stream — without iterating.
// Each segment whose fence overlaps the range answers by position
// arithmetic: two index lower-bound lookups, end minus start. The pending
// delta then contributes an exact correction: every pending key inside the
// range counts only if no segment already holds it. The cost is
// independent of the range width: counting a billion-key range is two
// model inferences per segment plus the delta correction.
func (s *Store) CountRange(lo, hi uint64) int { return s.u64().count(lo, hi, true) }

// CountFrom is CountRange without an upper bound: the number of distinct
// keys >= lo, the maximal key included.
func (s *Store) CountFrom(lo uint64) int { return s.u64().count(lo, 0, false) }

// CountRangeString returns the exact number of distinct string keys in
// [lo, hi) over the same view a ScanString at this instant would stream —
// by codec-index position arithmetic plus the delta correction, without
// iterating.
func (s *Store) CountRangeString(lo, hi string) int { return s.str().count(lo, hi, true) }

// CountFromString is CountFrom for string keys.
func (s *Store) CountFromString(lo string) int { return s.str().count(lo, "", false) }
