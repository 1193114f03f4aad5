package serve

// Streaming range scans and learned counts over the serving layer. The
// engine composes both (storage.Engine.Scan, CountRange and their string
// forms): a scan merges the engine's pending delta — the keys inserted but
// not yet drained, copied and sorted at open — with one cursor per segment
// (the resident run included) whose min/max fence overlaps the range,
// pinned against compaction for the scan's lifetime; each cursor enters
// its segment where the segment's model predicts the range starts. A range
// is [lo, hi) or, unbounded above, [lo, ∞) — its own entry point (ScanFrom,
// ScanStringFrom) rather than a sentinel upper bound, in both key kinds: an
// exclusive uint64 bound can never reach the maximal key.
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
// storage snapshot — recycles through pools: a steady-state uint64
// Scan→drain→Close cycle allocates nothing, and a string scan one
// allocation per page its cursors materialize (asserted by TestScanAllocs).

import (
	"cmp"
	"slices"
	"time"

	"learnedindex/internal/obs"
	"learnedindex/internal/scan"
	"learnedindex/internal/storage"
)

// openScan is Scan, ScanFrom and their string forms: the engine's scan
// over the range ([lo, hi) when bounded, keys >= lo otherwise), opened
// through the method expression open. Scan opens are cold next to the
// per-key stream, so the open (capture + seed seeks) is timed
// unconditionally when metrics are built in; the per-key path stays
// untouched — the iterator reports its emitted-key count once, at Close,
// into lix_serve_scan_keys.
func openScan[K cmp.Ordered](s *Store, open func(*storage.Engine, K, K, bool) *scan.Iterator[K], lo, hi K, bounded bool) *scan.Iterator[K] {
	s.m.scans.Inc()
	var start time.Time
	if obs.Enabled {
		start = time.Now()
	}
	it := open(s.eng, lo, hi, bounded)
	it.SetObs(s.m.scanKeys)
	if obs.Enabled {
		s.m.scanOpen.ObserveDuration(time.Since(start))
	}
	return it
}

// Scan opens a streaming merge over every key in [lo, hi): ascending,
// deduplicated, snapshot-consistent per the file comment above. The
// iterator starts before the first key — drive it with Next (or NextBatch)
// and always Close it; Seek repositions within the range. hi is exclusive;
// use ScanFrom to scan to the end, the maximal key included.
func (s *Store) Scan(lo, hi uint64) *scan.Iterator[uint64] {
	return openScan(s, (*storage.Engine).Scan, lo, hi, true)
}

// ScanFrom opens a scan over every key >= lo, to the end of the store.
func (s *Store) ScanFrom(lo uint64) *scan.Iterator[uint64] {
	return openScan(s, (*storage.Engine).Scan, lo, 0, false)
}

// ScanString opens a streaming merge over every string key in [lo, hi):
// ascending codec (byte) order, deduplicated, snapshot-consistent like
// Scan. hi is exclusive; use ScanStringFrom to scan without an upper
// bound. Always Close the iterator.
func (s *Store) ScanString(lo, hi string) *scan.Iterator[string] {
	return openScan(s, (*storage.Engine).ScanString, lo, hi, true)
}

// ScanStringFrom is ScanFrom for string keys.
func (s *Store) ScanStringFrom(lo string) *scan.Iterator[string] {
	return openScan(s, (*storage.Engine).ScanString, lo, "", false)
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
func (s *Store) CountRange(lo, hi uint64) int { return s.eng.CountRange(lo, hi, true) }

// CountFrom is CountRange without an upper bound: the number of distinct
// keys >= lo, the maximal key included.
func (s *Store) CountFrom(lo uint64) int { return s.eng.CountRange(lo, 0, false) }

// CountRangeString returns the exact number of distinct string keys in
// [lo, hi) over the same view a ScanString at this instant would stream —
// by codec-index position arithmetic plus the delta correction, without
// iterating.
func (s *Store) CountRangeString(lo, hi string) int { return s.eng.CountRangeStr(lo, hi, true) }

// CountFromString is CountFrom for string keys.
func (s *Store) CountFromString(lo string) int { return s.eng.CountRangeStr(lo, "", false) }
