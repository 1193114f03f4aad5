package storage

import (
	"slices"
	"sort"
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
// is copied BEFORE the segment list is loaded, so a key migrating from the
// WAL into a segment mid-acquisition appears in at least one of the two
// (and dedup handles both). A Snapshot is immutable and safe for
// concurrent readers; Release it exactly once.
type Snapshot struct {
	eng     *Engine
	segs    []*segment
	pending []uint64 // sorted, deduplicated unflushed keys
	// pendingS is pending for a string-keyed engine; only one of the two is
	// ever populated.
	pendingS []string
}

var snapshotPool = sync.Pool{New: func() any { return new(Snapshot) }}

// AcquireSnapshot pins the current served state plus the unflushed delta.
// Pair every acquisition with exactly one Release.
func (e *Engine) AcquireSnapshot() *Snapshot {
	return e.AcquireSnapshotRange(0, ^uint64(0))
}

// AcquireSnapshotRange is AcquireSnapshot restricted to the scan range
// [lo, hi): the unflushed delta copy keeps only in-range keys, so the
// capture's sort cost scales with delta∩range instead of the whole buffer
// (the segment list is shared pointers either way). Keys >= hi are
// invisible to the snapshot — the scan iterator's exclusive upper bound,
// applied at capture.
func (e *Engine) AcquireSnapshotRange(lo, hi uint64) *Snapshot {
	sn := snapshotPool.Get().(*Snapshot)
	sn.eng = e

	// Delta first (see the type comment for why this order is loss-free).
	e.mu.Lock()
	sn.pending = scan.AppendInRange(sn.pending[:0], e.pending, lo, hi)
	sn.pending = scan.AppendInRange(sn.pending, e.flushing, lo, hi)
	e.mu.Unlock()
	slices.Sort(sn.pending)
	sn.pending = slices.Compact(sn.pending)
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

// AcquireSnapshotRangeStr is AcquireSnapshotRange for a string-keyed
// engine. Strings have no natural +∞, so the upper bound is explicit:
// bounded restricts the view to [lo, hi), !bounded to keys >= lo (hi is
// ignored). The delta-before-segments acquisition order and the pinning
// rules are identical to the uint64 path.
func (e *Engine) AcquireSnapshotRangeStr(lo, hi string, bounded bool) *Snapshot {
	sn := snapshotPool.Get().(*Snapshot)
	sn.eng = e

	e.mu.Lock()
	if bounded {
		sn.pendingS = scan.AppendInRange(sn.pendingS[:0], e.pendingS, lo, hi)
		sn.pendingS = scan.AppendInRange(sn.pendingS, e.flushingS, lo, hi)
	} else {
		sn.pendingS = scan.AppendFrom(sn.pendingS[:0], e.pendingS, lo)
		sn.pendingS = scan.AppendFrom(sn.pendingS, e.flushingS, lo)
	}
	e.mu.Unlock()
	slices.Sort(sn.pendingS)
	sn.pendingS = slices.Compact(sn.pendingS)
	sn.pinSegments()
	return sn
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
	for i := range sn.pendingS {
		sn.pendingS[i] = ""
	}
	sn.pendingS = sn.pendingS[:0]
	sn.pending = sn.pending[:0]
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
func (sn *Snapshot) Pending() []uint64 { return sn.pending }

// NumSegments returns how many segments the snapshot pinned.
func (sn *Snapshot) NumSegments() int { return len(sn.segs) }

// SegmentKeys returns segment i's sorted key array plus its compiled plan
// as the learned entry positioner when the segment's [min, max] key fence
// overlaps [lo, hi), and (nil, nil) otherwise — the fence check is the scan
// subsystem's data skipping: a pruned segment contributes nothing and costs
// two comparisons. The array is the one point reads search; the scan layer
// wraps the pair in a scan.KeysCursor. Shared, read-only.
func (sn *Snapshot) SegmentKeys(i int, lo, hi uint64) ([]uint64, scan.Positioner[uint64]) {
	s := sn.segs[i]
	if hi <= s.minKey() || lo > s.maxKey() {
		return nil, nil
	}
	return s.keys, s.plan
}

// PendingStrings returns the snapshot's sorted, deduplicated unflushed
// string keys. Shared, read-only.
func (sn *Snapshot) PendingStrings() []string { return sn.pendingS }

// SegmentStrings returns segment i's codec index when the segment's
// [min, max] fence overlaps the scan range ([lo, hi) when bounded, keys >=
// lo otherwise), and nil when the fence prunes it. A string segment holds
// no strings: the scan layer points a core.StringCursor at the index, which
// materializes the keys it streams a page at a time.
func (sn *Snapshot) SegmentStrings(i int, lo, hi string, bounded bool) *core.StringIndex {
	s := sn.segs[i]
	if (bounded && hi <= s.minStr()) || lo > s.maxStr() {
		return nil
	}
	return s.sindex
}

// Contains reports whether key is in one of the snapshot's segments. The
// pending delta is NOT consulted.
func (sn *Snapshot) Contains(key uint64) bool {
	return containsBatchIn(sn.segs, &u64Ops, []uint64{key}, nil) > 0
}

// CountRange returns the exact number of distinct keys k in [lo, hi)
// across the snapshot: segments answer by pure position arithmetic — at
// most two compiled-plan lookups each, zero iteration, with the min/max
// fence resolving out-of-range segments in two comparisons — and the
// unflushed delta contributes an exact correction (each in-range delta key
// counts only if no segment already serves it). Segments hold disjoint key
// sets, so the per-segment sums compose exactly.
func (sn *Snapshot) CountRange(lo, hi uint64) int {
	if hi <= lo {
		return 0
	}
	total := 0
	for _, s := range sn.segs {
		if hi <= s.minKey() || lo > s.maxKey() {
			continue
		}
		a := 0
		if lo > s.minKey() {
			a = s.plan.Lookup(lo)
		}
		b := len(s.keys)
		if hi <= s.maxKey() {
			b = s.plan.Lookup(hi)
		}
		total += b - a
	}
	p := sn.pending
	p = p[search.Binary(p, lo, 0, len(p)):]
	p = p[:search.Binary(p, hi, 0, len(p))]
	return total + len(p) - containsBatchIn(sn.segs, &u64Ops, p, nil)
}

// CountRangeStr is CountRange for string keys: exact distinct-key count
// over [lo, hi) when bounded, or keys >= lo otherwise, by the same
// position arithmetic (two codec-index lookups per overlapping segment)
// plus the delta correction.
func (sn *Snapshot) CountRangeStr(lo, hi string, bounded bool) int {
	if bounded && hi <= lo {
		return 0
	}
	total := 0
	for _, s := range sn.segs {
		if (bounded && hi <= s.minStr()) || lo > s.maxStr() {
			continue
		}
		a := 0
		if lo > s.minStr() {
			a = s.sindex.Lookup(lo)
		}
		b := s.numKeys()
		if bounded && hi <= s.maxStr() {
			b = s.sindex.Lookup(hi)
		}
		total += b - a
	}
	p := sn.pendingS
	p = p[sort.SearchStrings(p, lo):]
	if bounded {
		p = p[:sort.SearchStrings(p, hi)]
	}
	return total + len(p) - containsBatchIn(sn.segs, &strOps, p, nil)
}

// CountRange is Snapshot.CountRange over a throwaway range-restricted
// snapshot: the engine-level learned COUNT for callers that don't hold a
// scan open.
func (e *Engine) CountRange(lo, hi uint64) int {
	if hi <= lo {
		return 0
	}
	sn := e.AcquireSnapshotRange(lo, hi)
	defer sn.Release()
	return sn.CountRange(lo, hi)
}

// CountRangeStr is Engine.CountRange for string keys.
func (e *Engine) CountRangeStr(lo, hi string, bounded bool) int {
	if !e.opts.StringKeys {
		panic("storage: string read on a uint64-keyed engine")
	}
	if bounded && hi <= lo {
		return 0
	}
	sn := e.AcquireSnapshotRangeStr(lo, hi, bounded)
	defer sn.Release()
	return sn.CountRangeStr(lo, hi, bounded)
}
