package storage

import (
	"cmp"
	"sync"

	"learnedindex/internal/bloom"
	"learnedindex/internal/core"
	"learnedindex/internal/obs"
)

// keyOps is the key-kind seam of the segment planes that exist once for
// both modes: how a uint64 or a string key hashes for the Bloom filters,
// where a segment's fence sits, whether the key at a position is a given
// key, how a set of segments ranks a run of (probe, segment) pairs, and how
// a sorted unique key run — a segment's own, for a merge — becomes a
// built segment (commitSegment, which gives it its file, is the same for
// both kinds). Membership has no entry of its own: it is rank plus one
// equality test by position.
type keyOps[K cmp.Ordered] struct {
	hash  func(K) (h1, h2 uint64)
	fence func(*segment) (lo, hi K)
	// at reports whether the segment's key at position pos (which may be
	// the key count) is k.
	at func(s *segment, pos int, k K) bool
	// keys returns the segment's sorted keys for a merge to read: a uint64
	// segment's own array, a string segment's run materialized for the call
	// (one allocation for the bytes, one for the headers).
	keys func(*segment) []K
	// rank writes pos[j] = the lower-bound position of probes[j] inside
	// segs[sel[j]] (nil sel = segs[0]) through core's batch kernel: any
	// probe order, any mix of segments, one lockstep search per tile.
	rank func(segs []*segment, sel []int32, probes []K, pos []int)
	// build trains the index and filter over sorted unique non-empty keys:
	// a servable segment with no file.
	build func(e *Engine, seqLo, seqHi uint64, keys []K) (*segment, error)
	pool  *sync.Pool // of *readScratch[K]
}

// stackSegs is how many segments' plans a rank call gathers on its own
// stack — size-tiered compaction keeps the live list at O(log n), well
// under it; a longer list allocates the plan set.
const stackSegs = 16

var (
	u64Ops = keyOps[uint64]{
		hash:  bloom.HashUint64,
		fence: func(s *segment) (uint64, uint64) { return s.minKey(), s.maxKey() },
		at:    func(s *segment, pos int, k uint64) bool { return pos < len(s.keys) && s.keys[pos] == k },
		keys:  func(s *segment) []uint64 { return s.keys },
		rank: func(segs []*segment, sel []int32, probes []uint64, pos []int) {
			var buf [stackSegs]*core.Plan
			plans := buf[:0]
			for _, s := range segs {
				plans = append(plans, s.plan)
			}
			core.LookupBatch(plans, sel, probes, pos)
		},
		build: func(e *Engine, seqLo, seqHi uint64, keys []uint64) (*segment, error) {
			return buildSegment(seqLo, seqHi, keys, e.opts.Config, e.opts.BloomFPR), nil
		},
		pool: &sync.Pool{New: func() any { return new(readScratch[uint64]) }},
	}
	strOps = keyOps[string]{
		hash:  bloom.HashString,
		fence: func(s *segment) (string, string) { return s.minStr(), s.maxStr() },
		at:    func(s *segment, pos int, k string) bool { return s.sindex.Dict().Equal(pos, k) },
		keys:  func(s *segment) []string { return s.sindex.Dict().AppendKeys(nil, 0, s.numKeys()) },
		rank: func(segs []*segment, sel []int32, probes []string, pos []int) {
			var buf [stackSegs]*core.StringIndex
			idx := buf[:0]
			for _, s := range segs {
				idx = append(idx, s.sindex)
			}
			core.LookupBatchStrings(idx, sel, probes, pos)
		},
		build: func(e *Engine, seqLo, seqHi uint64, keys []string) (*segment, error) {
			return buildStringSegment(seqLo, seqHi, keys, e.opts.Config, e.opts.BloomFPR)
		},
		pool: &sync.Pool{New: func() any { return new(readScratch[string]) }},
	}
)

// containsChunk is how many probes the read kernels resolve at a time, and
// how many (probe, segment) pairs they hand core's batch kernel in one
// call: the scratch below is sized by it, so a batch of any length over
// any number of segments costs a fixed 10–13 KB of pooled working memory.
const containsChunk = 256

// readScratch is the pooled working memory of one read-kernel call.
type readScratch[K cmp.Ordered] struct {
	hash [containsChunk][2]uint64 // each probe's Bloom hash pair, computed once
	live [containsChunk]uint16    // chunk indexes no segment has claimed yet
	hit  [containsChunk]bool

	// The pair buffer: the probes one rank call resolves — a segment's
	// Bloom passers, or a run of in-fence (probe, segment) pairs.
	keys [containsChunk]K
	sel  [containsChunk]int32  // the pair's segment
	slot [containsChunk]uint16 // the pair's probe, as a chunk index
	pos  [containsChunk]int
	used int // high-water mark of keys, cleared on release
}

// release returns sc to its pool. A pooled scratch must not pin the key
// bytes of the last batch it served.
func (sc *readScratch[K]) release(pool *sync.Pool) {
	clear(sc.keys[:sc.used])
	sc.used = 0
	pool.Put(sc)
}

// rankPairs resolves the first n buffered (probe, segment) pairs in one
// kernel call and adds each pair's rank to its probe's slot of out.
func (sc *readScratch[K]) rankPairs(segs []*segment, ops *keyOps[K], n int, out []int) {
	if n == 0 {
		return
	}
	sc.used = max(sc.used, n)
	ops.rank(segs, sc.sel[:n], sc.keys[:n], sc.pos[:n])
	for j, p := range sc.pos[:n] {
		out[sc.slot[j]] += p
	}
}

// containsBatchIn is the one membership kernel: every Contains of the
// engine, batched or single, and the flush dedupe run through it. It
// reports, per probe, whether some segment of segs serves it — into out
// (len(out) == len(probes); nil when only the count matters) — and returns
// the number of probes served.
//
// The walk is segment-major. Each probe is hashed once; then, newest
// segment first (the most recently flushed runs are the hottest), one
// tight loop takes every still-unresolved probe through the segment's
// min/max fence and Bloom filter — independent loads, one cache line per
// probe with the blocked layout — and only the passers run the segment's
// model, together: one rank call, then one equality test each against the
// segment's key at that position. A probe leaves the live list at its first
// hit (segments are disjoint), so the walk ends early once a batch of hits
// is resolved.
//
// The Bloom funnel (probe → pass → hit; pass−hit is the false positives
// actually paid) is counted per segment per chunk, not per key. Compiled
// out under -tags noobs.
func containsBatchIn[K cmp.Ordered](segs []*segment, ops *keyOps[K], probes []K, out []bool) (hits int) {
	if len(segs) == 0 {
		clear(out)
		return 0
	}
	sc := ops.pool.Get().(*readScratch[K])
	for base := 0; base < len(probes); base += containsChunk {
		chunk := probes[base:min(base+containsChunk, len(probes))]
		hit, live := sc.hit[:len(chunk)], sc.live[:len(chunk)]
		clear(hit)
		for i, k := range chunk {
			sc.hash[i][0], sc.hash[i][1] = ops.hash(k)
			live[i] = uint16(i)
		}
		for si := len(segs) - 1; si >= 0 && len(live) > 0; si-- {
			s := segs[si]
			lo, hi := ops.fence(s)
			probed, passed, found := 0, 0, 0
			for _, i := range live {
				k := chunk[i]
				if k < lo || k > hi {
					continue
				}
				probed++
				if s.filter.MayContainHash(sc.hash[i][0], sc.hash[i][1]) {
					sc.keys[passed], sc.slot[passed] = k, i
					passed++
				}
			}
			if passed > 0 {
				sc.used = max(sc.used, passed)
				pass, pos := sc.keys[:passed], sc.pos[:passed]
				ops.rank(segs[si:si+1], nil, pass, pos)
				for j, p := range pos {
					if ops.at(s, p, pass[j]) {
						hit[sc.slot[j]] = true
						found++
					}
				}
			}
			if obs.Enabled && probed > 0 {
				s.bloomProbes.Add(uint64(probed))
				s.bloomPass.Add(uint64(passed))
				s.bloomHits.Add(uint64(found))
			}
			if found > 0 {
				hits += found
				w := 0
				for _, i := range live {
					if !hit[i] {
						live[w] = i
						w++
					}
				}
				live = live[:w]
			}
		}
		if out != nil {
			copy(out[base:], hit)
		}
	}
	sc.release(ops.pool)
	return hits
}

// rankBatchIn is the one rank kernel: out[i] = the number of keys < probes[i]
// served by segs, for probes in any order (len(out) == len(probes)). Live
// segments hold disjoint key sets, so a global rank is the exact sum of
// per-segment ranks.
//
// The walk is segment-major over one chunk of probes at a time. The fence
// is the skipping sketch: a probe at or below a segment's minimum adds 0,
// one above its maximum adds the segment's key count — two comparisons, no
// model — and only what is left becomes a (probe, segment) pair. The pairs
// run core's batch kernel together, the segments' plans as the plan set
// and the segment index as the selector; because pairs are emitted
// segment-major, a tile of the lockstep search is mostly one segment, and
// the big base segment's misses are in flight together. A pair costs its
// plan's route plus one lockstep round per halving of its leaf's error
// window. Under core's zero Config the median pair takes ~6 rounds on a
// segment of 128k skewed uint64 keys or more and 6–8 on a 4k–64k-key one,
// whose first and last leaf take the p99 to 10–12 (8–9 at the median on
// base-36 string prefixes, whose CDF is a staircase); a two-stage plan
// written before that rule searches 2^8–2^14 keys on the same data, 8–14
// rounds. The pair buffer is fixed: it runs the kernel whenever it fills,
// whatever the batch length or segment count.
func rankBatchIn[K cmp.Ordered](segs []*segment, ops *keyOps[K], probes []K, out []int) {
	clear(out)
	if len(segs) == 0 || len(probes) == 0 {
		return
	}
	sc := ops.pool.Get().(*readScratch[K])
	for base := 0; base < len(probes); base += containsChunk {
		chunk := probes[base:min(base+containsChunk, len(probes))]
		cout := out[base : base+len(chunk)]
		n := 0
		for si, s := range segs {
			lo, hi := ops.fence(s)
			count := s.numKeys()
			for i, k := range chunk {
				switch {
				case k <= lo:
					// contributes 0
				case k > hi:
					cout[i] += count
				default:
					if n == containsChunk {
						sc.rankPairs(segs, ops, n, cout)
						n = 0
					}
					sc.keys[n], sc.sel[n], sc.slot[n] = k, int32(si), uint16(i)
					n++
				}
			}
		}
		sc.rankPairs(segs, ops, n, cout)
	}
	sc.release(ops.pool)
}

// dropServed removes from keys every key a segment of segs already serves,
// in place, preserving order: the flush-side use of the kernel, which is
// what keeps live segments disjoint. With no segment to dedupe against —
// a bulk preload into an empty directory — it touches nothing.
func dropServed[K cmp.Ordered](segs []*segment, ops *keyOps[K], keys []K) []K {
	if len(segs) == 0 {
		return keys
	}
	var hit [containsChunk]bool
	w := 0
	for base := 0; base < len(keys); base += containsChunk {
		chunk := keys[base:min(base+containsChunk, len(keys))]
		containsBatchIn(segs, ops, chunk, hit[:len(chunk)])
		for i, k := range chunk {
			if !hit[i] {
				keys[w] = k
				w++
			}
		}
	}
	clear(keys[w:]) // a dropped string must not stay pinned by the tail
	return keys[:w]
}
