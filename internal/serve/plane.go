package serve

// A Store's typed face, written once for both key modes. Every store runs
// the storage engine — on the real filesystem when persistent, on
// vfs.Discard in memory — so a key mode only chooses the keyOps its plane
// carries: which typed engine method serves each call, how a single-key
// lookup is sampled for metrics, and which cursor streams a segment.

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"learnedindex/internal/obs"
	"learnedindex/internal/storage"
)

// plane is a Store's plane for keys of kind K: the store and the ops of its
// key mode. A Store holds exactly one, and a typed method of the other mode
// panics (see planeOf), mirroring the storage engine's mode discipline.
type plane[K cmp.Ordered] struct {
	s   *Store
	ops *keyOps[K]
}

// planeOf returns s's plane as the K-keyed plane it must be: every typed
// entry point goes through it, so calling one of the other key mode's
// panics.
func planeOf[K cmp.Ordered](s *Store) *plane[K] {
	p, ok := s.mode.(*plane[K])
	if !ok {
		mode := "uint64-keyed"
		if s.StringKeys() {
			mode = "string-keyed"
		}
		var k K
		panic(fmt.Sprintf("serve: %T call on a %s store", k, mode))
	}
	return p
}

func (s *Store) u64() *plane[uint64] { return planeOf[uint64](s) }
func (s *Store) str() *plane[string] { return planeOf[string](s) }

// keyOps is the key-kind seam of the plane: everything that differs
// between a uint64 store and a string store, and nothing else.
type keyOps[K cmp.Ordered] struct {
	strKeys bool

	// sampled is the 1-in-64 admission of a single-key lookup's metrics.
	sampled func(m *storeMetrics, key K) bool

	// The engine's typed methods. scan pins the engine's snapshot of the
	// range on st, points a cursor at every segment whose fence overlaps it,
	// and returns the snapshot's pending delta.
	bulkLoad      func(*storage.Engine, []K) error
	insert        func(*storage.Engine, K) error
	commit        func(*storage.Engine, []K) error
	lookup        func(*storage.Engine, K) int
	contains      func(*storage.Engine, K) bool
	lookupBatch   func(*storage.Engine, []K, []int)
	containsBatch func(*storage.Engine, []K, []bool)
	count         func(e *storage.Engine, lo, hi K, bounded bool) int
	scan          func(st *scanState[K], e *storage.Engine, lo, hi K, bounded bool) []K

	// scans recycles scan state.
	scans sync.Pool
}

var u64Ops = keyOps[uint64]{
	sampled: func(_ *storeMetrics, key uint64) bool { return obs.SampleKey(key) },

	bulkLoad:      (*storage.Engine).BulkLoad,
	insert:        func(e *storage.Engine, k uint64) error { return e.Append(k) },
	commit:        (*storage.Engine).CommitBatch,
	lookup:        (*storage.Engine).Lookup,
	contains:      (*storage.Engine).Contains,
	lookupBatch:   (*storage.Engine).LookupBatch,
	containsBatch: (*storage.Engine).ContainsBatch,
	count:         (*storage.Engine).CountRange,
	scan: func(st *scanState[uint64], e *storage.Engine, lo, hi uint64, bounded bool) []uint64 {
		sn := e.AcquireSnapshotRange(lo, hi, bounded)
		st.snap = sn
		for i := 0; i < sn.NumSegments(); i++ {
			if ks, pos := sn.SegmentKeys(i, lo, hi, bounded); ks != nil {
				keysCursor(st.slot(), ks, pos)
			}
		}
		return sn.Pending()
	},
}

var strOps = keyOps[string]{
	strKeys: true,

	// A string key has no cheap hash to slice, so its lookups are admitted
	// by the store's shared Sampler: an unsampled call pays one sharded
	// atomic add.
	sampled: func(m *storeMetrics, _ string) bool { return m.sampler.Tick() },

	bulkLoad:      (*storage.Engine).BulkLoadStrings,
	insert:        func(e *storage.Engine, k string) error { return e.AppendString(k) },
	commit:        (*storage.Engine).CommitStringBatch,
	lookup:        (*storage.Engine).LookupString,
	contains:      (*storage.Engine).ContainsString,
	lookupBatch:   (*storage.Engine).LookupBatchString,
	containsBatch: (*storage.Engine).ContainsBatchString,
	count:         (*storage.Engine).CountRangeStr,
	scan: func(st *scanState[string], e *storage.Engine, lo, hi string, bounded bool) []string {
		sn := e.AcquireSnapshotRangeStr(lo, hi, bounded)
		st.snap = sn
		for i := 0; i < sn.NumSegments(); i++ {
			if si := sn.SegmentStrings(i, lo, hi, bounded); si != nil {
				stringCursor(st.slot(), si)
			}
		}
		return sn.PendingStrings()
	},
}

// insert appends a key to the engine's log; the engine drains it once
// MergeThreshold keys are pending. A write error is sticky in the engine
// and surfaces on Sync/Flush/Close.
func (p *plane[K]) insert(key K) {
	s := p.s
	if s.repl.follower != nil {
		panic("serve: insert on a follower store (writes go to the primary)")
	}
	s.m.inserts.Inc()
	p.ops.insert(s.eng, key) // errors are sticky; surfaced by Sync/Flush/Close
}

// insertDurable inserts keys through the engine's group-commit plane and
// returns once they are durable.
func (p *plane[K]) insertDurable(keys []K) error {
	s := p.s
	if s.repl.follower != nil {
		return ErrFollowerStore
	}
	s.m.inserts.Add(int64(len(keys)))
	var start time.Time
	if obs.Enabled {
		start = time.Now()
	}
	if err := p.ops.commit(s.eng, keys); err != nil {
		return err
	}
	if obs.Enabled {
		s.m.insertNs.ObserveDuration(time.Since(start))
	}
	return nil
}

// lookup is Lookup and LookupString: the global lower-bound position of
// key, with 1-in-64 sampled metrics.
func (p *plane[K]) lookup(key K) int {
	s := p.s
	if p.ops.sampled(&s.m, key) {
		s.m.lookups.Add(64)
		if obs.Enabled {
			start := time.Now()
			pos := p.ops.lookup(s.eng, key)
			s.m.lookupNs.ObserveDuration(time.Since(start))
			return pos
		}
	}
	return p.ops.lookup(s.eng, key)
}

// has is Contains and ContainsString.
func (p *plane[K]) has(key K) bool { return p.ops.contains(p.s.eng, key) }

// lookupBatch is LookupBatch and LookupBatchString. Per-batch metrics: two
// sharded atomic adds (batch count + sampler tick) plus one histogram add
// — amortized over the whole batch, which is what keeps the instrumented
// build within the <3% overhead gate. Latency is timed only on 1-in-64
// sampled batches.
func (p *plane[K]) lookupBatch(probes []K) []int {
	s := p.s
	s.m.batches.Inc()
	s.m.batchLen.Observe(uint64(len(probes)))
	if obs.Enabled && s.m.sampler.Tick() {
		start := time.Now()
		out := p.rankBatch(probes)
		s.m.batchNs.ObserveDuration(time.Since(start))
		return out
	}
	return p.rankBatch(probes)
}

func (p *plane[K]) rankBatch(probes []K) []int {
	out := make([]int, len(probes))
	if len(probes) > 0 {
		p.ops.lookupBatch(p.s.eng, probes, out)
	}
	return out
}

// containsBatch is ContainsBatch and ContainsBatchString: one captured
// segment list for the whole batch, walked segment by segment — the engine
// fences the whole batch per segment, and only the in-fence probes run a
// model, together.
func (p *plane[K]) containsBatch(probes []K) []bool {
	out := make([]bool, len(probes))
	if len(probes) > 0 {
		p.ops.containsBatch(p.s.eng, probes, out)
	}
	return out
}
