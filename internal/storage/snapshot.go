package storage

import (
	"cmp"
	"slices"
	"sync"

	"learnedindex/internal/scan"
	"learnedindex/internal/search"
)

// snapshot is a pinned point-in-time view of the engine for range scans
// and learned counts: the segment list as of acquisition plus a sorted,
// deduplicated copy of every key that was appended/committed but not yet
// served (the WAL-backed delta, including keys frozen by an in-progress
// Drain or Flush). While a snapshot is held, compaction may replace segments
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
// one of the two (and dedup handles both). A snapshot is immutable and safe
// for concurrent readers; release it exactly once.
type snapshot struct {
	eng  *Engine
	segs []*segment
	// keys or strs, per the engine's key mode, is the sorted, deduplicated
	// unflushed delta; the other stays empty. The pool recycles both.
	keys []uint64
	strs []string
}

var snapshotPool = sync.Pool{New: func() any { return new(snapshot) }}

// acquireSnapshot pins the plane's unflushed delta in the scan range —
// [lo, hi) when bounded, keys >= lo otherwise (hi is ignored) — then the
// segment list. The delta copy keeps only in-range keys, so the capture's
// sort cost scales with delta∩range instead of the whole buffer (the
// segment list is shared pointers either way). Pair every acquisition with
// exactly one release.
func acquireSnapshot[K cmp.Ordered](p *writePlane[K], lo, hi K, bounded bool) *snapshot {
	e := p.e
	sn := snapshotPool.Get().(*snapshot)
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
func (sn *snapshot) pinSegments() {
	e := sn.eng
	e.segMu.Lock()
	segs := *e.segs.Load()
	for _, s := range segs {
		s.pins.Add(1)
	}
	sn.segs = append(sn.segs[:0], segs...)
	e.segMu.Unlock()
}

// release unpins the snapshot's segments — deleting any compacted-away
// segment file whose last pin this was — and recycles the snapshot. The
// unlink syscalls run outside segMu so releases never stall concurrent
// snapshot acquisitions on filesystem latency.
func (sn *snapshot) release() {
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

// countRange is the one learned COUNT over a snapshot, [lo, hi) when
// bounded and keys >= lo otherwise: segments answer by pure position
// arithmetic — at most two scalar lookups each, zero iteration, with the
// min/max fence resolving out-of-range segments in two comparisons — and
// the unflushed delta contributes an exact correction (each in-range delta
// key counts only if no segment already serves it). Segments hold disjoint
// key sets, so the per-segment sums compose exactly.
func countRange[K cmp.Ordered](sn *snapshot, ops *keyOps[K], lo, hi K, bounded bool) int {
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

// CountRange is the learned COUNT over a throwaway range-restricted
// snapshot: [lo, hi) when bounded, keys >= lo otherwise. See countRange.
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
	defer sn.release()
	return countRange(sn, p.ops, lo, hi, bounded)
}

// Scan opens a streaming merge over every key of the range — [lo, hi)
// when bounded, keys >= lo otherwise (hi is ignored) — on a snapshot it
// acquires for the range and releases when the iterator closes: ascending,
// deduplicated, and isolated from every later append, drain, flush and
// compaction. See scanSnapshot.
func (e *Engine) Scan(lo, hi uint64, bounded bool) *scan.Iterator[uint64] {
	return scanFresh(planeOf[uint64](e), lo, hi, bounded)
}

// ScanString is Scan for a string-keyed engine, in codec (byte) order.
func (e *Engine) ScanString(lo, hi string, bounded bool) *scan.Iterator[string] {
	return scanFresh(planeOf[string](e), lo, hi, bounded)
}

func scanFresh[K cmp.Ordered](p *writePlane[K], lo, hi K, bounded bool) *scan.Iterator[K] {
	return scanSnapshot(acquireSnapshot(p, lo, hi, bounded), p.ops, lo, hi, bounded, true)
}

// scanState is the pooled per-scan working set: the snapshot the scan
// releases at Close, if it owns one, plus the cursors that stream it. It
// implements scan.Closer, so the iterator's Close returns everything here
// to the pool.
type scanState[K cmp.Ordered] struct {
	ops  *keyOps[K]
	snap *snapshot
	dc   scan.KeysCursor[K] // streams the pending delta
	// curs holds one cursor per segment the range overlaps. A slot keeps
	// its cursor across scans, so a string cursor's page keeps the capacity
	// earlier scans grew.
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

// CloseScan releases the owned snapshot and recycles the state. Runs via
// Iterator.Close after every cursor has been released.
func (st *scanState[K]) CloseScan() {
	if st.snap != nil {
		st.snap.release()
		st.snap = nil
	}
	st.curs = st.curs[:0] // cursor Release already dropped the index refs
	st.ops.scans.Put(st)
}

// scanSnapshot is the one scan composition: a merge of sn's pending delta
// with one cursor per segment whose min/max fence overlaps the range —
// [lo, hi) when bounded, keys >= lo otherwise — started over the range.
// The fence is the scan's data skipping: a pruned segment contributes
// nothing and costs two comparisons. A uint64 segment's cursor walks its
// key array entered at the position its plan predicts for the range start
// (model-biased seek, not binary search); a string segment holds no
// strings, and its cursor (core.StringCursor) materializes the keys it
// streams out of the segment's dictionary a page at a time. The delta is
// added first, so the newest layer wins the merge's ties, and a key seen
// in two layers — mid-migration at capture — streams once. With release
// set, closing the iterator releases sn.
//
// All scan state — the iterator, its tournament arrays, the cursors and
// the snapshot — recycles through pools: a steady-state uint64
// Scan→drain→Close cycle allocates nothing, and a string scan one
// allocation per page its cursors materialize.
func scanSnapshot[K cmp.Ordered](sn *snapshot, ops *keyOps[K], lo, hi K, bounded, release bool) *scan.Iterator[K] {
	st := ops.scans.Get().(*scanState[K])
	st.ops = ops
	if release {
		st.snap = sn
	}
	it := scan.Get[K]()
	if d := *ops.delta(sn); len(d) > 0 {
		st.dc.Reset(d, nil)
		it.Add(&st.dc)
	}
	for _, s := range sn.segs {
		if first, last := ops.fence(s); (bounded && hi <= first) || lo > last {
			continue
		}
		c := st.slot()
		ops.cursor(c, s)
		it.Add(*c)
	}
	if bounded {
		it.Start(lo, hi, st)
	} else {
		it.StartFrom(lo, st)
	}
	return it
}
