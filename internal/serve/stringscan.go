package serve

// Streaming range scans and learned counts over a string-keyed Store: the
// codec-domain twin of scan.go, with one wrinkle — strings have no +∞, so
// the unbounded-above scan is a distinct entry point (ScanStringFrom)
// instead of a sentinel upper bound. The capture discipline (delta layers
// before snapshots, newest-wins merge dedup) and the pooling contract are
// identical.

import (
	"slices"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/obs"
	"learnedindex/internal/scan"
)

// captureInMemoryStr is captureInMemory in the string domain; bounded
// selects [lo, hi) vs keys >= lo.
func (st *scanState) captureInMemoryStr(s *Store, lo, hi string, bounded bool) {
	st.sdelta = st.sdelta[:0]
	for _, sh := range s.shardsS {
		sh.mu.Lock()
		if bounded {
			st.sdelta = scan.AppendInRange(st.sdelta, sh.buf, lo, hi)
			st.sdelta = scan.AppendInRange(st.sdelta, sh.draining, lo, hi)
		} else {
			st.sdelta = scan.AppendFrom(st.sdelta, sh.buf, lo)
			st.sdelta = scan.AppendFrom(st.sdelta, sh.draining, lo)
		}
		sh.mu.Unlock()
	}
	slices.Sort(st.sdelta)
	st.sdelta = slices.Compact(st.sdelta)
	st.ssnaps = st.ssnaps[:0]
	for _, sh := range s.shardsS {
		st.ssnaps = append(st.ssnaps, sh.snap.Load())
	}
}

// ScanString opens a streaming merge over every string key in [lo, hi):
// ascending codec (byte) order, deduplicated, snapshot-consistent per the
// scan.go package comment. hi is exclusive; use ScanStringFrom to scan
// without an upper bound. Always Close the iterator.
func (s *Store) ScanString(lo, hi string) *scan.Iterator[string] {
	return s.openStringScan(lo, hi, true)
}

// ScanStringFrom opens a scan over every string key >= lo, to the end of
// the store — the unbounded-above form a maximal-key sentinel cannot
// express in the string domain.
func (s *Store) ScanStringFrom(lo string) *scan.Iterator[string] {
	return s.openStringScan(lo, "", false)
}

func (s *Store) openStringScan(lo, hi string, bounded bool) *scan.Iterator[string] {
	if !s.strKeys {
		panic("serve: string scan on a uint64-keyed store")
	}
	s.m.scans.Inc()
	var start time.Time
	if obs.Enabled {
		start = time.Now()
	}
	it := scan.Get[string]()
	it.SetObs(s.m.scanKeys)
	st := scanStatePool.Get().(*scanState)
	// Either way the layers are one sorted delta copy plus the codec indexes
	// whose fence overlaps the range.
	var delta []string
	st.scs = st.scs[:0]
	if s.eng != nil {
		sn := s.eng.AcquireSnapshotRangeStr(lo, hi, bounded)
		st.snap = sn
		delta = sn.PendingStrings()
		for i := 0; i < sn.NumSegments(); i++ {
			if si := sn.SegmentStrings(i, lo, hi, bounded); si != nil {
				st.addStrCursor(si)
			}
		}
	} else {
		st.captureInMemoryStr(s, lo, hi, bounded)
		delta = st.sdelta
		for _, si := range st.ssnaps {
			if !strFenceOut(si, lo, hi, bounded) {
				st.addStrCursor(si)
			}
		}
	}
	if len(delta) > 0 {
		st.sdc.Reset(delta, nil)
		it.Add(&st.sdc) // delta first: the newest layer wins ties
	}
	for i := range st.scs {
		it.Add(&st.scs[i])
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

// addStrCursor points the next cursor of the pooled array at si. A slot is
// reused as it was left, so its page keeps the capacity earlier scans grew.
func (st *scanState) addStrCursor(si *core.StringIndex) {
	if len(st.scs) < cap(st.scs) {
		st.scs = st.scs[:len(st.scs)+1]
	} else {
		st.scs = append(st.scs, core.StringCursor{})
	}
	st.scs[len(st.scs)-1].Reset(si)
}

// strFenceOut reports whether a shard's published index holds no key of the
// range ([lo, hi) when bounded, keys >= lo otherwise): the in-memory fence.
func strFenceOut(si *core.StringIndex, lo, hi string, bounded bool) bool {
	d := si.Dict()
	return d.Len() == 0 || (bounded && d.Min() >= hi) || d.Max() < lo
}

// ScanBatchString appends every string key in [lo, hi) — same view as
// ScanString — to dst and returns it.
func (s *Store) ScanBatchString(lo, hi string, dst []string) []string {
	return drainScan(s.ScanString(lo, hi), dst)
}

// CountRangeString returns the exact number of distinct string keys in
// [lo, hi) over the same view a ScanString at this instant would stream —
// by codec-index position arithmetic plus the delta correction, without
// iterating.
func (s *Store) CountRangeString(lo, hi string) int {
	if hi <= lo {
		return 0
	}
	return s.countStr(lo, hi, true)
}

// CountFromString is CountRangeString without an upper bound: the number
// of distinct committed string keys >= lo.
func (s *Store) CountFromString(lo string) int { return s.countStr(lo, "", false) }

func (s *Store) countStr(lo, hi string, bounded bool) int {
	if !s.strKeys {
		panic("serve: string scan on a uint64-keyed store")
	}
	if s.eng != nil {
		return s.eng.CountRangeStr(lo, hi, bounded)
	}
	st := scanStatePool.Get().(*scanState)
	st.captureInMemoryStr(s, lo, hi, bounded)
	total := 0
	for _, si := range st.ssnaps {
		if strFenceOut(si, lo, hi, bounded) {
			continue
		}
		end := si.Len()
		if bounded {
			end = si.Lookup(hi)
		}
		total += end - si.Lookup(lo)
	}
	for _, k := range st.sdelta { // already restricted to the range
		if !st.ssnaps[s.shardForString(k)].Contains(k) {
			total++
		}
	}
	st.CloseScan()
	return total
}
