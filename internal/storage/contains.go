package storage

import (
	"cmp"
	"sync"

	"learnedindex/internal/binenc"
	"learnedindex/internal/core"
	"learnedindex/internal/scan"
	"learnedindex/internal/slicepool"
)

// keyOps is the key-kind seam of the segment planes that exist once for
// both modes: where a segment's fence sits, how one segment ranks one key,
// how a set of segments ranks a run of (probe, segment) pairs, and how a
// sorted unique key run — a segment's own, for a merge — becomes a built
// segment (commitSegment, which gives it its file, is the same for both
// kinds). Membership has no entry of its own: it is rank plus one equality
// test by position. A scan (snapshot.go) asks how a segment streams; the
// write plane (writeplane.go) asks three things more: a WAL record's
// grammar, the bound a record's keys are chunked against, and where a key
// run sits in a ReplFrame or a snapshot.
type keyOps[K cmp.Ordered] struct {
	fence func(*segment) (lo, hi K)
	// keys returns the segment's sorted keys for a merge to read: a uint64
	// segment's own array, a string segment's run materialized for the call
	// (one allocation for the bytes, one for the headers).
	keys func(*segment) []K
	// lookup returns the lower-bound position of k inside the segment
	// through its plan or codec index: the scalar read of one probe.
	lookup func(s *segment, k K) int
	// rank writes pos[j] = the lower-bound position of probes[j] inside
	// segs[sel[j]] through core's batch kernel: any probe order, any mix of
	// segments, one lockstep search per tile. When found is non-nil it also
	// sets found[j] to whether that segment stores probes[j].
	rank func(segs []*segment, sel []int32, probes []K, pos []int, found []bool)
	// build trains the index over sorted unique non-empty keys: a servable
	// segment with no file.
	build func(e *Engine, seqLo, seqHi uint64, keys []K) (*segment, error)
	pool  *sync.Pool // of *readScratch[K]

	// cursor points the scan cursor in slot c at segment s, reusing the
	// cursor a pooled scan state left there: a KeysCursor over the key
	// array entered through the plan, or a core.StringCursor over the
	// codec index.
	cursor func(c *scan.Cursor[K], s *segment)
	scans  *sync.Pool // of *scanState[K]

	// record appends the WAL payload of batches, framed as one record, to
	// dst (binenc's key payload); decode reads one back.
	record func(dst []byte, batches ...[]K) []byte
	decode func(r *binenc.Reader, dst []K, max int) []K
	// weight is what batch counts against limit, the bound on one record:
	// its key count (at most maxAppendChunk), or the bytes its keys encode
	// to (at most maxStringChunkBytes).
	weight func(batch []K) int
	limit  int
	// replKeys and delta point at the ReplFrame and snapshot fields that
	// hold keys of this kind.
	replKeys func(*ReplFrame) *[]K
	delta    func(*snapshot) *[]K
	// pendingPool recycles the write plane's pending buffers (see
	// maxPooledPending).
	pendingPool slicepool.Pool[K]
}

// stackSegs is how many segments' plans a rank call gathers on its own
// stack — size-tiered compaction keeps the live list at O(log n), well
// under it; a longer list allocates the plan set.
const stackSegs = 16

var (
	u64Ops = keyOps[uint64]{
		fence:  func(s *segment) (uint64, uint64) { return s.minKey(), s.maxKey() },
		keys:   func(s *segment) []uint64 { return s.keys },
		lookup: func(s *segment, k uint64) int { return s.plan.Lookup(k) },
		rank: func(segs []*segment, sel []int32, probes []uint64, pos []int, found []bool) {
			var buf [stackSegs]*core.Plan
			plans := buf[:0]
			for _, s := range segs {
				plans = append(plans, s.plan)
			}
			core.LookupBatch(plans, sel, probes, pos)
			for j := range found {
				keys := segs[sel[j]].keys
				found[j] = pos[j] < len(keys) && keys[pos[j]] == probes[j]
			}
		},
		build: func(e *Engine, seqLo, seqHi uint64, keys []uint64) (*segment, error) {
			return buildSegment(seqLo, seqHi, keys, e.opts.Config), nil
		},
		pool: &sync.Pool{New: func() any { return new(readScratch[uint64]) }},
		cursor: func(c *scan.Cursor[uint64], s *segment) {
			kc, ok := (*c).(*scan.KeysCursor[uint64])
			if !ok {
				kc = new(scan.KeysCursor[uint64])
				*c = kc
			}
			kc.Reset(s.keys, s.plan)
		},
		scans: &sync.Pool{New: func() any { return new(scanState[uint64]) }},

		record:   binenc.AppendUvarints,
		decode:   (*binenc.Reader).Uvarints,
		weight:   func(batch []uint64) int { return len(batch) },
		limit:    maxAppendChunk,
		replKeys: func(f *ReplFrame) *[]uint64 { return &f.Keys },
		delta:    func(sn *snapshot) *[]uint64 { return &sn.keys },
	}
	strOps = keyOps[string]{
		fence:  func(s *segment) (string, string) { return s.minStr(), s.maxStr() },
		keys:   func(s *segment) []string { return s.sindex.Dict().AppendKeys(nil, 0, s.numKeys()) },
		lookup: func(s *segment, k string) int { return s.sindex.Lookup(k) },
		rank: func(segs []*segment, sel []int32, probes []string, pos []int, found []bool) {
			var buf [stackSegs]*core.StringIndex
			idx := buf[:0]
			for _, s := range segs {
				idx = append(idx, s.sindex)
			}
			core.FindBatchStrings(idx, sel, probes, pos, found)
		},
		build: func(e *Engine, seqLo, seqHi uint64, keys []string) (*segment, error) {
			return buildStringSegment(seqLo, seqHi, keys, e.opts.Config)
		},
		pool: &sync.Pool{New: func() any { return new(readScratch[string]) }},
		cursor: func(c *scan.Cursor[string], s *segment) {
			sc, ok := (*c).(*core.StringCursor)
			if !ok {
				sc = new(core.StringCursor)
				*c = sc
			}
			sc.Reset(s.sindex)
		},
		scans: &sync.Pool{New: func() any { return new(scanState[string]) }},

		record:   binenc.AppendStrings,
		decode:   (*binenc.Reader).Strings,
		weight:   encodedStringsSize,
		limit:    maxStringChunkBytes,
		replKeys: func(f *ReplFrame) *[]string { return &f.Strs },
		delta:    func(sn *snapshot) *[]string { return &sn.strs },
	}
)

// containsChunk is how many probes the read kernels resolve at a time, and
// how many (probe, segment) pairs they hand core's batch kernel in one
// call: the scratch below is sized by it, so a batch of any length over
// any number of segments costs a fixed 8–11 KB of pooled working memory.
const containsChunk = 256

// readScratch is the pooled working memory of one read-kernel call.
type readScratch[K cmp.Ordered] struct {
	// A membership call's per-probe answers, and the ranks its walk sums
	// and it does not read.
	hit  [containsChunk]bool
	rank [containsChunk]int

	// The pair buffer: a run of in-fence (probe, segment) pairs that one
	// rank call resolves.
	keys  [containsChunk]K
	sel   [containsChunk]int32  // the pair's segment
	slot  [containsChunk]uint16 // the pair's probe, as a chunk index
	pos   [containsChunk]int
	found [containsChunk]bool
	used  int // high-water mark of keys, cleared on release
}

// release returns sc to its pool. A pooled scratch must not pin the key
// bytes of the last batch it served.
func (sc *readScratch[K]) release(pool *sync.Pool) {
	clear(sc.keys[:sc.used])
	sc.used = 0
	pool.Put(sc)
}

// walk is the one walk of both read kernels, over one chunk of at most
// containsChunk probes: it adds to rank[i] the number of keys below
// chunk[i] that segs serve and, when hit is non-nil, sets hit[i] when a
// segment stores chunk[i] (hit and rank start cleared).
//
// The walk is segment-major. The fence is the skipping sketch: a probe
// below a segment's minimum adds 0, one at it adds 0 and is stored there,
// one above its maximum adds the segment's key count — two or three
// comparisons, no model — and only what is left becomes a (probe, segment)
// pair. The pairs run core's batch kernel together, the segments' plans as
// the plan set and the segment index as the selector; because pairs are
// emitted segment-major, a tile of the lockstep search is mostly one
// segment, and the big base segment's misses are in flight together. A
// pair adds its position to its probe's rank, and a membership walk takes
// the kernel's equality test at that position (segments are disjoint, so a
// probe is stored by at most one). A pair costs its plan's route plus one
// lockstep round per halving of its leaf's error window. Under core's zero
// Config the median pair takes ~6 rounds on a segment of 128k skewed
// uint64 keys or more and 6–8 on a 4k–64k-key one, whose first and last
// leaf take the p99 to 10–12 (8–9 at the median on base-36 string
// prefixes, whose CDF is a staircase); a two-stage plan written before
// that rule searches 2^8–2^14 keys on the same data, 8–14 rounds. The pair
// buffer is fixed: it runs the kernel whenever it fills, whatever the
// batch length or segment count.
func (sc *readScratch[K]) walk(segs []*segment, ops *keyOps[K], chunk []K, rank []int, hit []bool) {
	n := 0
	for si, s := range segs {
		lo, hi := ops.fence(s)
		count := s.numKeys()
		for i, k := range chunk {
			switch {
			case k <= lo:
				if k == lo && hit != nil {
					hit[i] = true
				}
			case k > hi:
				rank[i] += count
			default:
				if n == containsChunk {
					sc.resolve(segs, ops, n, rank, hit)
					n = 0
				}
				sc.keys[n], sc.sel[n], sc.slot[n] = k, int32(si), uint16(i)
				n++
			}
		}
	}
	sc.resolve(segs, ops, n, rank, hit)
}

// resolve ranks the first n buffered (probe, segment) pairs in one kernel
// call, adds each pair's position to its probe's rank and, when hit is
// non-nil, marks the probes the pairs' segments store.
func (sc *readScratch[K]) resolve(segs []*segment, ops *keyOps[K], n int, rank []int, hit []bool) {
	if n == 0 {
		return
	}
	sc.used = max(sc.used, n)
	var found []bool
	if hit != nil {
		found = sc.found[:n]
	}
	ops.rank(segs, sc.sel[:n], sc.keys[:n], sc.pos[:n], found)
	for j, p := range sc.pos[:n] {
		rank[sc.slot[j]] += p
	}
	for j, f := range found {
		if f {
			hit[sc.slot[j]] = true
		}
	}
}

// containsBatchIn is the membership kernel: every Contains of the engine,
// batched or single, and the flush dedupe run through it. It reports, per
// probe, whether some segment of segs serves it — into out (len(out) ==
// len(probes); nil when only the count matters) — and returns the number
// of probes served. It is the rank walk plus one equality test per
// in-fence pair.
func containsBatchIn[K cmp.Ordered](segs []*segment, ops *keyOps[K], probes []K, out []bool) (hits int) {
	if len(segs) == 0 {
		clear(out)
		return 0
	}
	sc := ops.pool.Get().(*readScratch[K])
	for base := 0; base < len(probes); base += containsChunk {
		chunk := probes[base:min(base+containsChunk, len(probes))]
		hit, rank := sc.hit[:len(chunk)], sc.rank[:len(chunk)]
		clear(hit)
		clear(rank)
		sc.walk(segs, ops, chunk, rank, hit)
		for _, h := range hit {
			if h {
				hits++
			}
		}
		if out != nil {
			copy(out[base:], hit)
		}
	}
	sc.release(ops.pool)
	return hits
}

// rankBatchIn is the rank kernel: out[i] = the number of keys < probes[i]
// served by segs, for probes in any order (len(out) == len(probes)). Live
// segments hold disjoint key sets, so a global rank is the exact sum of
// per-segment ranks.
func rankBatchIn[K cmp.Ordered](segs []*segment, ops *keyOps[K], probes []K, out []int) {
	clear(out)
	if len(segs) == 0 || len(probes) == 0 {
		return
	}
	sc := ops.pool.Get().(*readScratch[K])
	for base := 0; base < len(probes); base += containsChunk {
		end := min(base+containsChunk, len(probes))
		sc.walk(segs, ops, probes[base:end], out[base:end], nil)
	}
	sc.release(ops.pool)
}

// rankIn is rankBatchIn for one probe and its per-key reference: the same
// fence resolves out-of-range segments on two comparisons, and each
// segment whose fence holds key runs its own scalar lookup.
func rankIn[K cmp.Ordered](segs []*segment, ops *keyOps[K], key K) int {
	total := 0
	for _, s := range segs {
		lo, hi := ops.fence(s)
		switch {
		case key <= lo:
			// contributes 0
		case key > hi:
			total += s.numKeys()
		default:
			total += ops.lookup(s, key)
		}
	}
	return total
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
