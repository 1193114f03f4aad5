// Package scan is the streaming range-query engine: a snapshot-consistent
// k-way merge over any number of sorted key sources. It is the paper's
// headline range-index use case made end-to-end — the RMI predicts where a
// range starts, and the system *scans* from there — generalized to the
// layered store this repo has grown: the pending delta and every learned
// segment (the resident run included) contribute one cursor each,
// and the merge streams the deduplicated union in ascending order without
// ever materializing it.
//
// The engine is generic over the key type (any cmp.Ordered): the uint64
// instantiation is the native read path, and the string instantiation is
// the codec-backed string-key path (internal/keycodec), whose learned
// layers hold no strings and stream through core.StringCursor — keys
// materialized out of a dictionary a page at a time. Both share every line
// of the merge machinery.
//
// # Loser tree
//
// The merge is a tournament loser tree, not a binary heap: with k sources,
// advancing the winner replays exactly one root-to-leaf path of ⌈log2 k⌉
// matches, each against a *precomputed* loser — one comparison per level,
// against a heap's up-to-two (sift-down compares both children). Ties are
// broken by cursor index, and callers add cursors newest-first, so when the
// same key lives in several layers the newest one wins and the older
// duplicates are skipped — the merge has newest-wins set semantics.
//
// # Model-biased entry
//
// A cursor over a learned layer seeks with the layer's own index: the
// KeysCursor takes a Positioner (satisfied by *core.Plan) and enters at the
// predicted-and-corrected lower-bound position instead of binary-searching
// the array; core.StringCursor does the same through its StringIndex. On a 1M-key
// layer that is the difference between one model inference (~100ns) and
// ~20 dependent cache misses.
//
// # Allocation discipline
//
// Iterators and their tree state recycle through a pool: Get → Add cursors
// → Start → Next/NextBatch → Close returns everything. A steady-state scan
// performs no allocations in this package; the storage engine composes its
// own pooled cursor and snapshot state on top (see internal/storage) so a
// whole Store.Scan stays within its documented allocation budget.
package scan

import (
	"cmp"
	"sync"

	"learnedindex/internal/obs"
	"learnedindex/internal/search"
)

// Positioner is a learned entry point into a sorted key array: Lookup
// returns the lower-bound position of key (index of the first element
// >= key), exactly. *core.Plan satisfies Positioner[uint64] (so does
// *core.RMI); *core.StringIndex satisfies Positioner[string].
type Positioner[K cmp.Ordered] interface {
	Lookup(key K) int
}

// Cursor is one sorted source in a merge. Implementations must return keys
// in strictly ascending order between Seeks.
type Cursor[K cmp.Ordered] interface {
	// Seek positions the cursor at the first key >= key, reporting whether
	// such a key exists. Seeking backward is allowed.
	Seek(key K) bool
	// Next advances to the following key, reporting whether one exists.
	Next() bool
	// Key returns the current key. Valid only after a true Seek/Next.
	Key() K
	// Release drops pooled state and source references. The cursor must not
	// be used afterwards. Called by Iterator.Close.
	Release()
}

// Closer is the scan-owner hook run by Iterator.Close after every cursor is
// released: the storage engine uses it to unpin its snapshots and return
// its pooled capture state.
type Closer interface {
	CloseScan()
}

// KeysCursor iterates a sorted []K. With a Positioner set, Seek enters at
// the model-predicted lower bound (one index inference); without one it
// falls back to binary search. The zero value is unusable; call Reset
// first.
type KeysCursor[K cmp.Ordered] struct {
	keys []K
	pos  Positioner[K]
	i    int
}

// Reset points the cursor at a sorted key array with an optional learned
// entry index (nil means binary-search entry).
func (c *KeysCursor[K]) Reset(keys []K, pos Positioner[K]) {
	c.keys, c.pos, c.i = keys, pos, 0
}

// Seek positions at the first key >= key.
func (c *KeysCursor[K]) Seek(key K) bool {
	if c.pos != nil {
		c.i = c.pos.Lookup(key)
	} else {
		c.i = search.Binary(c.keys, key, 0, len(c.keys))
	}
	return c.i < len(c.keys)
}

// Next advances to the following key.
func (c *KeysCursor[K]) Next() bool {
	c.i++
	return c.i < len(c.keys)
}

// Key returns the current key.
func (c *KeysCursor[K]) Key() K { return c.keys[c.i] }

// Release drops the key-array and index references so a pooled cursor never
// pins a superseded snapshot.
func (c *KeysCursor[K]) Release() { c.keys, c.pos = nil, nil }

// AppendInRange appends src's keys within [lo, hi) to dst: the shared
// capture filter of the scan-owning layers, which copy only the in-range
// part of their delta buffers so capture cost scales with delta∩range.
func AppendInRange[K cmp.Ordered](dst, src []K, lo, hi K) []K {
	for _, k := range src {
		if k >= lo && k < hi {
			dst = append(dst, k)
		}
	}
	return dst
}

// AppendFrom appends src's keys >= lo to dst: the capture filter for
// unbounded-above scans (string scans with no upper key — there is no
// natural +∞ sentinel in the string domain).
func AppendFrom[K cmp.Ordered](dst, src []K, lo K) []K {
	for _, k := range src {
		if k >= lo {
			dst = append(dst, k)
		}
	}
	return dst
}

// MergeRuns merges sorted runs into one fresh, deduplicated, sorted array
// of exact size: the materializing twin of Iterator, for the layers that
// build a new key array out of old ones — a storage drain or compaction.
// A key held by several runs, or repeated within
// one, appears once. It is a head-comparison merge (a compaction merges at
// most twice its fanout and a drain two, so the linear head scan beats a
// heap) instead of concatenate-and-sort: no O(total log total) sort and no
// sort scratch. runs' entries are resliced as they are consumed.
func MergeRuns[K cmp.Ordered](runs [][]K) []K {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]K, 0, total)
	for {
		best := -1
		var k K
		for i, r := range runs {
			if len(r) > 0 && (best < 0 || r[0] < k) {
				best, k = i, r[0]
			}
		}
		if best < 0 {
			return out
		}
		runs[best] = runs[best][1:]
		if n := len(out); n == 0 || out[n-1] != k {
			out = append(out, k)
		}
	}
}

// Iterator streams the deduplicated ascending union of its cursors over the
// half-open key range [lo, hi) fixed at Start (or [lo, ∞) fixed at
// StartFrom). Obtain one with Get, drive it with Next/NextBatch/Seek, and
// always Close it (Close recycles the iterator and releases every cursor
// and the owner's snapshot state).
//
// An Iterator is single-goroutine; concurrent scans each take their own.
type Iterator[K cmp.Ordered] struct {
	cursors []Cursor[K]
	key     []K     // current key per cursor
	done    []bool  // cursor exhausted
	tree    []int32 // loser tree: tree[0] = winner, tree[1..k) = match losers
	win     []int32 // winner-tree build scratch (2k slots)
	k       int
	lo, hi  K
	bounded bool // hi participates in range checks
	cur     K    // last emitted key
	emitted bool // cur is valid (dedup baseline)
	valid   bool // Key() is valid
	closer  Closer
	closed  bool
	pool    *sync.Pool // home pool, nil for exotic instantiations
	// emitted counts keys produced over the iterator's lifetime (a plain
	// field increment — scans are single-goroutine). obsKeys, when set via
	// SetObs, receives the final count at Close, giving the owning layer a
	// keys-per-scan distribution at zero per-key atomic cost.
	emittedN uint64
	obsKeys  *obs.Histogram
}

// Per-instantiation iterator pools. sync.Pool is untyped, so the common
// instantiations get dedicated pools resolved by a compile-time-flattened
// type switch in Get; any other key type allocates per scan.
var (
	iterPoolU64 = sync.Pool{New: func() any { return new(Iterator[uint64]) }}
	iterPoolStr = sync.Pool{New: func() any { return new(Iterator[string]) }}
)

// Get returns a pooled, empty iterator. Add cursors (newest source first),
// then Start or StartFrom.
func Get[K cmp.Ordered]() *Iterator[K] {
	var it *Iterator[K]
	var pool *sync.Pool
	switch any(*new(K)).(type) {
	case uint64:
		pool = &iterPoolU64
	case string:
		pool = &iterPoolStr
	}
	if pool != nil {
		it = pool.Get().(*Iterator[K])
	} else {
		it = new(Iterator[K])
	}
	it.pool = pool
	it.cursors = it.cursors[:0]
	it.k = 0
	it.closer = nil
	it.closed = false
	it.valid, it.emitted = false, false
	it.emittedN, it.obsKeys = 0, nil
	return it
}

// SetObs points the iterator at a histogram that will receive the number
// of keys this scan emitted when it Closes. Call between Get and Close;
// nil (the Get default) disables the report.
func (it *Iterator[K]) SetObs(keys *obs.Histogram) { it.obsKeys = keys }

// Add appends a merge source. Cursors must be added newest-first: on equal
// keys the lowest-indexed cursor wins the tournament, which is what gives
// the merge newest-wins semantics.
func (it *Iterator[K]) Add(c Cursor[K]) { it.cursors = append(it.cursors, c) }

// Start fixes the scan range [lo, hi), seeks every cursor to lo, and builds
// the tournament. closer (may be nil) runs once at Close, after the cursors
// are released. The iterator starts positioned before the first key: call
// Next to begin.
func (it *Iterator[K]) Start(lo, hi K, closer Closer) {
	it.hi = hi
	it.bounded = true
	it.start(lo, closer)
}

// StartFrom fixes the scan range [lo, ∞): like Start with no upper bound.
// The string instantiation needs this — strings have no maximum value to
// pass as an exclusive hi.
func (it *Iterator[K]) StartFrom(lo K, closer Closer) {
	it.bounded = false
	it.start(lo, closer)
}

func (it *Iterator[K]) start(lo K, closer Closer) {
	it.lo = lo
	it.closer = closer
	it.k = len(it.cursors)
	if cap(it.key) < it.k {
		it.key = make([]K, it.k)
		it.done = make([]bool, it.k)
		it.tree = make([]int32, it.k)
		it.win = make([]int32, 2*it.k)
	}
	it.key = it.key[:it.k]
	it.done = it.done[:it.k]
	it.tree = it.tree[:it.k]
	it.win = it.win[:2*it.k]
	it.seekAll(lo)
}

// seekAll repositions every cursor at the first key >= key and rebuilds the
// tournament from scratch.
func (it *Iterator[K]) seekAll(key K) {
	for j, c := range it.cursors {
		if c.Seek(key) {
			it.done[j] = false
			it.key[j] = c.Key()
		} else {
			it.done[j] = true
		}
	}
	it.build()
	it.valid, it.emitted = false, false
}

// beats reports whether leaf a wins its match against leaf b: live beats
// done, smaller key beats larger, and on equal keys the lower index (the
// newer source) wins.
func (it *Iterator[K]) beats(a, b int32) bool {
	if it.done[a] != it.done[b] {
		return !it.done[a]
	}
	if it.done[a] {
		return a < b
	}
	ka, kb := it.key[a], it.key[b]
	if ka != kb {
		return ka < kb
	}
	return a < b
}

// build plays the full tournament bottom-up: an implicit heap over 2k slots
// whose leaves are the cursors, recording each internal match's loser in
// tree and bubbling the winner to tree[0].
func (it *Iterator[K]) build() {
	k := it.k
	if k == 0 {
		return
	}
	if k == 1 {
		it.tree[0] = 0
		return
	}
	win := it.win
	for j := 0; j < k; j++ {
		win[k+j] = int32(j)
	}
	for i := k - 1; i >= 1; i-- {
		a, b := win[2*i], win[2*i+1]
		if it.beats(a, b) {
			win[i], it.tree[i] = a, b
		} else {
			win[i], it.tree[i] = b, a
		}
	}
	it.tree[0] = win[1]
}

// advance moves cursor j past its current key and replays j's root path:
// one match per tree level against the stored loser, exactly the work the
// loser tree exists to bound.
func (it *Iterator[K]) advance(j int32) {
	if it.cursors[j].Next() {
		it.key[j] = it.cursors[j].Key()
	} else {
		it.done[j] = true
	}
	if it.k == 1 {
		return
	}
	w := j
	for node := (int(j) + it.k) >> 1; node > 0; node >>= 1 {
		if it.beats(it.tree[node], w) {
			it.tree[node], w = w, it.tree[node]
		}
	}
	it.tree[0] = w
}

// Next advances to the next distinct key in range, reporting whether one
// exists. Duplicate keys across sources are emitted once (the newest
// source's instance, though for a key-only store all instances are equal).
func (it *Iterator[K]) Next() bool {
	for it.k > 0 {
		w := it.tree[0]
		if it.done[w] {
			break // winner exhausted => every cursor is
		}
		k := it.key[w]
		if it.bounded && k >= it.hi {
			break // winner is the minimum => nothing left in range
		}
		it.advance(w)
		if it.emitted && k == it.cur {
			continue // an older layer's duplicate of the last emitted key
		}
		it.cur = k
		it.emitted, it.valid = true, true
		it.emittedN++
		return true
	}
	it.valid = false
	return false
}

// Key returns the current key. Valid only after a true Next/Seek.
func (it *Iterator[K]) Key() K { return it.cur }

// Valid reports whether Key currently holds a scan result.
func (it *Iterator[K]) Valid() bool { return it.valid }

// Seek repositions the scan at the first key >= key (clamped into the
// Start range) and reports whether one exists there; on true, Key is
// already valid and Next continues past it. Seeking backward is allowed.
func (it *Iterator[K]) Seek(key K) bool {
	if key < it.lo {
		key = it.lo
	}
	it.seekAll(key)
	return it.Next()
}

// NextBatch fills dst with the next len(dst) keys of the scan, returning
// how many were produced (short only at end of range). The loop body is the
// same tournament pop as Next with the per-call bookkeeping amortized over
// the batch.
func (it *Iterator[K]) NextBatch(dst []K) int {
	n := 0
	for n < len(dst) && it.Next() {
		dst[n] = it.cur
		n++
	}
	return n
}

// Close releases every cursor, runs the owner's Closer, and recycles the
// iterator. Idempotent.
func (it *Iterator[K]) Close() {
	if it.closed {
		return
	}
	it.closed = true
	if it.obsKeys != nil {
		it.obsKeys.Observe(it.emittedN)
		it.obsKeys = nil
	}
	for i, c := range it.cursors {
		c.Release()
		it.cursors[i] = nil
	}
	it.cursors = it.cursors[:0]
	it.k = 0
	it.valid = false
	var zero K
	it.cur, it.lo, it.hi = zero, zero, zero // drop string refs held in pooled state
	for i := range it.key {
		it.key[i] = zero
	}
	if c := it.closer; c != nil {
		it.closer = nil
		c.CloseScan()
	}
	if it.pool != nil {
		it.pool.Put(it)
	}
}
