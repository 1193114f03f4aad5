package storage

import (
	"cmp"
	"slices"
	"sync"

	"learnedindex/internal/core"
	"learnedindex/internal/scan"
	"learnedindex/internal/search"
)

// Snapshot is a pinned point-in-time view of the engine for range scans
// and learned counts: the segment list as of acquisition plus a sorted,
// deduplicated copy of every key that was appended/committed but not yet
// served (the WAL-backed delta, including keys frozen by an in-progress
// Drain or Flush). While a Snapshot is held, compaction may replace segments
// in the live list but will not delete a pinned segment's file — deletion is
// deferred until the last pin releases — so the on-disk state backing the
// view outlives the scan no matter how many merges land mid-stream. A pinned
// resident run has no file: drains replace it in the live list, the view
// keeps the one it captured, and releasing it is a counter decrement.
//
// Acquisition order is what makes the view loss-free: the unflushed delta
// — the write plane's pending and flushing keys, copied by one capture for
// both key modes — is taken BEFORE the segment list is loaded, so a key
// migrating from the WAL into a segment mid-acquisition appears in at least
// one of the two (and dedup handles both). A Snapshot is immutable and safe
// for concurrent readers; Release it exactly once. Its typed methods panic
// on a snapshot of the other key mode's engine, like the Engine's.
type Snapshot struct {
	eng  *Engine
	segs []*segment
	// keys or strs, per the engine's key mode, is the sorted, deduplicated
	// unflushed delta; the other stays empty. The pool recycles both.
	keys []uint64
	strs []string
}

var snapshotPool = sync.Pool{New: func() any { return new(Snapshot) }}

// AcquireSnapshot pins the current served state plus the whole unflushed
// delta: AcquireSnapshotRange unbounded from the smallest key. Pair every
// acquisition with exactly one Release.
func (e *Engine) AcquireSnapshot() *Snapshot {
	return e.AcquireSnapshotRange(0, 0, false)
}

// AcquireSnapshotRange is AcquireSnapshot restricted to the scan range —
// [lo, hi) when bounded, keys >= lo otherwise (hi is ignored): the
// unflushed delta copy keeps only in-range keys, so the capture's sort
// cost scales with delta∩range instead of the whole buffer (the segment
// list is shared pointers either way). Keys outside the range are
// invisible to the snapshot's delta — the scan iterator's bounds, applied
// at capture.
func (e *Engine) AcquireSnapshotRange(lo, hi uint64, bounded bool) *Snapshot {
	return acquireSnapshot(planeOf[uint64](e), lo, hi, bounded)
}

// AcquireSnapshotRangeStr is AcquireSnapshotRange for a string-keyed
// engine.
func (e *Engine) AcquireSnapshotRangeStr(lo, hi string, bounded bool) *Snapshot {
	return acquireSnapshot(planeOf[string](e), lo, hi, bounded)
}

// acquireSnapshot captures the plane's unflushed delta in range — [lo, hi)
// when bounded, keys >= lo otherwise — then pins the segment list.
func acquireSnapshot[K cmp.Ordered](p *writePlane[K], lo, hi K, bounded bool) *Snapshot {
	e := p.e
	sn := snapshotPool.Get().(*Snapshot)
	sn.eng = e
	d := p.ops.delta(sn)
	// Delta first (see the type comment for why this order is loss-free).
	e.mu.Lock()
	for _, src := range [2][]K{p.pending, p.flushing} {
		if bounded {
			*d = scan.AppendInRange(*d, src, lo, hi)
		} else {
			*d = scan.AppendFrom(*d, src, lo)
		}
	}
	e.mu.Unlock()
	slices.Sort(*d)
	*d = slices.Compact(*d)
	sn.pinSegments()
	return sn
}

// pinSegments captures and pins the live segment list. Pinning happens
// under segMu: publication and retirement both hold it, so a segment cannot
// be retired between the list load and its pin.
func (sn *Snapshot) pinSegments() {
	e := sn.eng
	e.segMu.Lock()
	segs := *e.segs.Load()
	for _, s := range segs {
		s.pins.Add(1)
	}
	sn.segs = append(sn.segs[:0], segs...)
	e.segMu.Unlock()
}

// Release unpins the snapshot's segments — deleting any compacted-away
// segment file whose last pin this was — and recycles the snapshot. The
// unlink syscalls run outside segMu so releases never stall concurrent
// snapshot acquisitions on filesystem latency.
func (sn *Snapshot) Release() {
	e := sn.eng
	if e == nil {
		return // already released
	}
	sn.eng = nil
	var sweep []string
	e.segMu.Lock()
	for i, s := range sn.segs {
		if s.pins.Add(-1) == 0 && s.zombie {
			s.zombie = false // claimed under segMu: exactly one releaser unlinks
			e.m.zombies.Add(-1)
			sweep = append(sweep, s.path)
		}
		sn.segs[i] = nil
	}
	e.segMu.Unlock()
	for _, p := range sweep {
		// Best-effort: a zombie file that survives its unlink is GC'd by
		// containment at the next open.
		e.countIOErr("remove zombie segment", e.fs.Remove(p))
	}
	sn.segs = sn.segs[:0]
	// Drop delta string refs before pooling so a recycled snapshot never
	// pins key bytes from a finished scan.
	clear(sn.strs)
	sn.strs = sn.strs[:0]
	sn.keys = sn.keys[:0]
	snapshotPool.Put(sn)
}

// retireLocked marks a compacted-away segment for deletion and returns the
// path the caller must unlink (outside the lock) when no scan pins it;
// pinned segments become zombies deleted by the releasing scan. Called
// with segMu held, after the replacement list is published. Retired
// filenames are never minted again (sequence ranges only grow), so the
// deferred unlink cannot collide with a fresh segment.
func (e *Engine) retireLocked(s *segment) string {
	if s.pins.Load() == 0 {
		return s.path
	}
	s.zombie = true
	e.m.zombies.Add(1)
	return ""
}

// Pending returns the snapshot's sorted, deduplicated unflushed keys (the
// WAL-backed delta layer of a scan). Shared, read-only.
func (sn *Snapshot) Pending() []uint64 {
	planeOf[uint64](sn.eng) // the mode check
	return sn.keys
}

// NumSegments returns how many segments the snapshot pinned.
func (sn *Snapshot) NumSegments() int { return len(sn.segs) }

// SegmentKeys returns segment i's sorted key array plus its compiled plan
// as the learned entry positioner when the segment's [min, max] key fence
// overlaps the scan range ([lo, hi) when bounded, keys >= lo otherwise),
// and (nil, nil) otherwise — the fence check is the scan subsystem's data
// skipping: a pruned segment contributes nothing and costs two
// comparisons. The array is the one point reads search; the scan layer
// wraps the pair in a scan.KeysCursor. Shared, read-only.
func (sn *Snapshot) SegmentKeys(i int, lo, hi uint64, bounded bool) ([]uint64, scan.Positioner[uint64]) {
	planeOf[uint64](sn.eng) // the mode check
	s := sn.segs[i]
	if (bounded && hi <= s.minKey()) || lo > s.maxKey() {
		return nil, nil
	}
	return s.keys, s.plan
}

// PendingStrings returns the snapshot's sorted, deduplicated unflushed
// string keys. Shared, read-only.
func (sn *Snapshot) PendingStrings() []string {
	planeOf[string](sn.eng) // the mode check
	return sn.strs
}

// SegmentStrings returns segment i's codec index when the segment's
// [min, max] fence overlaps the scan range ([lo, hi) when bounded, keys >=
// lo otherwise), and nil when the fence prunes it. A string segment holds
// no strings: the scan layer points a core.StringCursor at the index, which
// materializes the keys it streams a page at a time.
func (sn *Snapshot) SegmentStrings(i int, lo, hi string, bounded bool) *core.StringIndex {
	planeOf[string](sn.eng) // the mode check
	s := sn.segs[i]
	if (bounded && hi <= s.minStr()) || lo > s.maxStr() {
		return nil
	}
	return s.sindex
}

// Contains reports whether key is in one of the snapshot's segments. The
// pending delta is NOT consulted.
func (sn *Snapshot) Contains(key uint64) bool {
	return containsBatchIn(sn.segs, planeOf[uint64](sn.eng).ops, []uint64{key}, nil) > 0
}

// CountRange returns the exact number of distinct keys k in [lo, hi)
// across the snapshot when bounded, keys >= lo otherwise. See countRange.
func (sn *Snapshot) CountRange(lo, hi uint64, bounded bool) int {
	return countRange(sn, planeOf[uint64](sn.eng).ops, lo, hi, bounded)
}

// CountRangeStr is CountRange for string keys.
func (sn *Snapshot) CountRangeStr(lo, hi string, bounded bool) int {
	return countRange(sn, planeOf[string](sn.eng).ops, lo, hi, bounded)
}

// countRange is the one learned COUNT over a snapshot, [lo, hi) when
// bounded and keys >= lo otherwise: segments answer by pure position
// arithmetic — at most two scalar lookups each, zero iteration, with the
// min/max fence resolving out-of-range segments in two comparisons — and
// the unflushed delta contributes an exact correction (each in-range delta
// key counts only if no segment already serves it). Segments hold disjoint
// key sets, so the per-segment sums compose exactly.
func countRange[K cmp.Ordered](sn *Snapshot, ops *keyOps[K], lo, hi K, bounded bool) int {
	if bounded && hi <= lo {
		return 0
	}
	total := 0
	for _, s := range sn.segs {
		first, last := ops.fence(s)
		if (bounded && hi <= first) || lo > last {
			continue
		}
		a := 0
		if lo > first {
			a = ops.lookup(s, lo)
		}
		b := s.numKeys()
		if bounded && hi <= last {
			b = ops.lookup(s, hi)
		}
		total += b - a
	}
	p := *ops.delta(sn)
	p = p[search.Binary(p, lo, 0, len(p)):]
	if bounded {
		p = p[:search.Binary(p, hi, 0, len(p))]
	}
	return total + len(p) - containsBatchIn(sn.segs, ops, p, nil)
}

// CountRange is Snapshot.CountRange over a throwaway range-restricted
// snapshot: the engine-level learned COUNT for callers that don't hold a
// scan open.
func (e *Engine) CountRange(lo, hi uint64, bounded bool) int {
	return countFresh(planeOf[uint64](e), lo, hi, bounded)
}

// CountRangeStr is Engine.CountRange for string keys.
func (e *Engine) CountRangeStr(lo, hi string, bounded bool) int {
	return countFresh(planeOf[string](e), lo, hi, bounded)
}

// countFresh counts over a snapshot it acquires for the range and
// releases: an empty bounded range pins nothing.
func countFresh[K cmp.Ordered](p *writePlane[K], lo, hi K, bounded bool) int {
	if bounded && hi <= lo {
		return 0
	}
	sn := acquireSnapshot(p, lo, hi, bounded)
	defer sn.Release()
	return countRange(sn, p.ops, lo, hi, bounded)
}
