package serve

// Streaming range scans and learned counts over the serving layer: the
// snapshot-consistent composition of every layer a key can live in.
//
// An in-memory Store's scan merges (a) one cursor over the combined
// per-shard insert buffers — the delta layer, copied and sorted at open —
// and (b) one cursor per shard base array, entered at the position the
// shard's compiled plan predicts for the range start (model-biased seek,
// not binary search). A persistent Store's scan merges the engine's
// unflushed WAL delta with one cursor per on-disk segment — over the
// segment's resident key array, entered through its plan — pruned by
// min/max fences and pinned against compaction for the scan's lifetime
// (storage.Snapshot). String layers, in memory or on disk, hold no strings:
// their cursor (core.StringCursor) materializes the keys it streams out of
// the layer's dictionary a page at a time.
//
// # Consistency
//
// A scan (and CountRange) observes every Insert that returned before the
// call — including still-buffered ones the point-read path won't serve
// until the next drain — and nothing that starts after it: the capture
// copies each shard's buffer AND its in-flight draining batch before
// loading the shard snapshot (the engine equivalently copies
// pending+flushing before the segment list), so a key mid-migration
// between layers is seen in at least one, and the merge's newest-wins
// dedup collapses a key seen in two. After the capture the scan is
// isolated: concurrent inserts, drains, retrains, flushes, and compactions
// never add to, remove from, or reorder an open scan's stream.
//
// # Allocation discipline
//
// All scan state — the iterator, its tournament arrays, cursor structs,
// delta copies, and (persistent) the storage snapshot — recycles through
// pools; a steady-state Scan→drain→Close cycle allocates nothing here
// (asserted by TestScanAllocs).

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/scan"
	"learnedindex/internal/storage"
)

// scanState is the pooled per-scan working set: the captured view (shard
// snapshots + delta copy, or the pinned storage snapshot) plus the backing
// array for the concrete slice cursors. It implements scan.Closer, so the
// iterator's Close returns everything here to the pool.
type scanState struct {
	snap  *storage.Snapshot
	snaps []*snapshot
	delta []uint64
	kcs   []scan.KeysCursor[uint64]
	// String-mode twins; only one set is populated per scan. sdc streams
	// the sorted delta copy, scs the captured indexes.
	ssnaps []*core.StringIndex
	sdelta []string
	sdc    scan.KeysCursor[string]
	scs    []core.StringCursor
}

var scanStatePool = sync.Pool{New: func() any { return new(scanState) }}

// CloseScan unpins the storage snapshot (persistent scans), drops snapshot
// references, and recycles the state. Runs via Iterator.Close after every
// cursor has been released.
func (st *scanState) CloseScan() {
	if st.snap != nil {
		st.snap.Release()
		st.snap = nil
	}
	clear(st.snaps)
	st.snaps = st.snaps[:0]
	st.kcs = st.kcs[:0] // cursor Release already dropped the key refs
	clear(st.ssnaps)
	st.ssnaps = st.ssnaps[:0]
	// Zero the delta's string entries: the pooled backing array must not
	// pin key bytes from a finished scan.
	clear(st.sdelta)
	st.sdelta = st.sdelta[:0]
	st.scs = st.scs[:0]
	scanStatePool.Put(st)
}

// captureInMemory copies the delta layer (every shard's buffer plus any
// in-flight draining batch, restricted to [lo, hi) so the sort cost
// scales with delta∩range rather than the whole buffer) and THEN loads
// each shard's published snapshot. The order is the loss-free invariant: a
// drain moves keys buffer → draining → snapshot, clearing draining only
// after publication, so copying buffers first can duplicate a migrating
// key (dedup absorbs it) but never miss one.
func (st *scanState) captureInMemory(s *Store, lo, hi uint64) {
	st.delta = st.delta[:0]
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.delta = scan.AppendInRange(st.delta, sh.buf, lo, hi)
		st.delta = scan.AppendInRange(st.delta, sh.draining, lo, hi)
		sh.mu.Unlock()
	}
	slices.Sort(st.delta)
	st.delta = dedupSorted(st.delta)
	st.snaps = st.snaps[:0]
	for _, sh := range s.shards {
		st.snaps = append(st.snaps, sh.snap.Load())
	}
}

// Scan opens a streaming merge over every key in [lo, hi): ascending,
// deduplicated, snapshot-consistent per the package comment above. The
// iterator starts before the first key — drive it with Next (or NextBatch)
// and always Close it; Seek repositions within the range. hi is exclusive,
// so ^uint64(0) scans to the end of the domain save the maximal key.
func (s *Store) Scan(lo, hi uint64) *scan.Iterator[uint64] {
	if s.strKeys {
		panic("serve: uint64 scan on a string-keyed store")
	}
	// Scan opens are cold next to the per-key stream, so the open (capture
	// + seed seeks) is timed unconditionally when metrics are built in; the
	// per-key path stays untouched — the iterator reports its emitted-key
	// count once, at Close, into lix_serve_scan_keys.
	s.m.scans.Inc()
	var start time.Time
	if obs.Enabled {
		start = time.Now()
	}
	it := scan.Get[uint64]()
	it.SetObs(s.m.scanKeys)
	st := scanStatePool.Get().(*scanState)
	// Fill the concrete cursor array completely before taking pointers:
	// delta first (the newest layer wins merge ties), then every segment or
	// shard whose fence overlaps the range.
	st.kcs = st.kcs[:0]
	add := func(keys []uint64, pos scan.Positioner[uint64]) {
		st.kcs = append(st.kcs, scan.KeysCursor[uint64]{})
		st.kcs[len(st.kcs)-1].Reset(keys, pos)
	}
	if s.eng != nil {
		sn := s.eng.AcquireSnapshotRange(lo, hi)
		st.snap = sn
		if p := sn.Pending(); len(p) > 0 {
			add(p, nil)
		}
		for i := 0; i < sn.NumSegments(); i++ {
			if ks, plan := sn.SegmentKeys(i, lo, hi); ks != nil {
				add(ks, plan)
			}
		}
	} else {
		st.captureInMemory(s, lo, hi)
		if len(st.delta) > 0 {
			add(st.delta, nil)
		}
		for _, sn := range st.snaps { // shards are range-disjoint: the fence prunes all but the covering ones
			if ks := sn.keys; len(ks) > 0 && ks[0] < hi && ks[len(ks)-1] >= lo {
				add(ks, sn.plan)
			}
		}
	}
	for i := range st.kcs {
		it.Add(&st.kcs[i])
	}
	it.Start(lo, hi, st)
	if obs.Enabled {
		s.m.scanOpen.ObserveDuration(time.Since(start))
	}
	return it
}

// ScanBatch appends every key in [lo, hi) — same view as Scan — to dst and
// returns it, growing dst as needed. The drain runs through the iterator's
// batched fill, so the per-key cost is the amortized tournament pop.
func (s *Store) ScanBatch(lo, hi uint64, dst []uint64) []uint64 {
	return drainScan(s.Scan(lo, hi), dst)
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
// Each shard (or on-disk segment) answers by position arithmetic: two
// compiled-plan lower-bound lookups, end minus start. The delta layer then
// contributes an exact correction: every buffered key inside the range
// counts only if its shard's snapshot (or the segment set) doesn't already
// hold it. The capture copies only in-range buffered keys, so the cost is
// O(total buffered + shards + (delta∩range)·log) with the sort and the
// membership probes scaling with the in-range delta alone — independent of
// the range width: counting a billion-key range is two model inferences
// per layer plus the delta correction.
func (s *Store) CountRange(lo, hi uint64) int {
	if s.strKeys {
		panic("serve: uint64 scan on a string-keyed store")
	}
	if hi <= lo {
		return 0
	}
	if s.eng != nil {
		return s.eng.CountRange(lo, hi)
	}
	st := scanStatePool.Get().(*scanState)
	st.captureInMemory(s, lo, hi)
	total := 0
	for _, sn := range st.snaps {
		if ks := sn.keys; len(ks) == 0 || ks[0] >= hi || ks[len(ks)-1] < lo {
			continue
		}
		a, b := sn.plan.RangeScan(lo, hi)
		total += b - a
	}
	for _, k := range st.delta { // already restricted to [lo, hi)
		if !st.snaps[s.shardFor(k)].plan.Contains(k) {
			total++
		}
	}
	st.CloseScan()
	return total
}
