// Package btree implements the paper's main baseline: a read-optimized,
// bulk-loaded B-Tree over an in-memory dense sorted array.
//
// The design follows the paper's description of its "production quality
// B-Tree implementation which is similar to the stx::btree but with further
// cache-line optimization, dense pages (i.e., fill factor of 100%)" (§3.7.1)
// and its assumptions: fixed-length records, logical paging over a single
// continuous sorted array (§2). Concretely, the index stores, per level, a
// flat array of separator keys — the first key of every page — and inner
// levels that take every fanout-th separator of the level below, where the
// fanout is the page size. Child addresses are implicit offsets
// (i -> [i*fanout, (i+1)*fanout)), the offset-not-pointer trick the paper
// attributes to modern in-memory trees (§6), so a node never stores pointers
// and the whole index is a handful of contiguous allocations.
//
// Lookup cost is one binary search per level over at most `fanout` keys plus
// one binary search inside the data page — exactly the log_fanout(N) node
// traversals of §2.1.
package btree

import (
	"cmp"
	"sort"
)

// Index is a bulk-loaded read-only B-Tree over a sorted key array. The
// "page size" is the number of keys per data page, matching the paper's
// Figure 4 convention ("the page size for B-Trees indicates the number of
// keys per page not the size in Bytes").
type Index[K cmp.Ordered] struct {
	keys     []K   // the indexed sorted array (not owned, not counted in SizeBytes)
	pageSize int   // keys per data page, and separators per inner node
	levels   [][]K // levels[0] = first key of every page; levels[i+1] sparser
}

// New bulk-loads a B-Tree over keys (which must be sorted ascending) with
// the given page size. The fanout equals the page size, giving a uniform
// tree like stx::btree with identical inner and leaf slots. The keys slice
// is retained, not copied: the tree indexes the caller's array, as a
// database index references its table.
func New[K cmp.Ordered](keys []K, pageSize int) *Index[K] {
	if pageSize < 2 {
		pageSize = 2
	}
	t := &Index[K]{keys: keys, pageSize: pageSize}
	if len(keys) == 0 {
		return t
	}
	// Level 0: first key of every page.
	nPages := (len(keys) + pageSize - 1) / pageSize
	l0 := make([]K, nPages)
	for i := 0; i < nPages; i++ {
		l0[i] = keys[i*pageSize]
	}
	t.levels = append(t.levels, l0)
	// Higher levels until the top fits in one node.
	for len(t.levels[len(t.levels)-1]) > pageSize {
		below := t.levels[len(t.levels)-1]
		n := (len(below) + pageSize - 1) / pageSize
		lvl := make([]K, n)
		for i := 0; i < n; i++ {
			lvl[i] = below[i*pageSize]
		}
		t.levels = append(t.levels, lvl)
	}
	return t
}

// Lookup returns the lower-bound position of key in the indexed array: the
// index of the first key >= key, or len(keys) if all keys are smaller.
func (t *Index[K]) Lookup(key K) int {
	n := len(t.keys)
	if n == 0 {
		return 0
	}
	// Descend from the top level. At each level we know the answer lies in
	// the child range [lo, hi) of separator slots.
	top := t.levels[len(t.levels)-1]
	slot := upperBoundMinus1(top, key, 0, len(top))
	for li := len(t.levels) - 2; li >= 0; li-- {
		lvl := t.levels[li]
		lo := slot * t.pageSize
		hi := lo + t.pageSize
		if hi > len(lvl) {
			hi = len(lvl)
		}
		slot = upperBoundMinus1(lvl, key, lo, hi)
	}
	// slot is now the page index; binary search within the page.
	lo := slot * t.pageSize
	hi := lo + t.pageSize
	if hi > n {
		hi = n
	}
	pos := lowerBound(t.keys, key, lo, hi)
	return pos
}

// Contains reports whether key is present.
func (t *Index[K]) Contains(key K) bool {
	p := t.Lookup(key)
	return p < len(t.keys) && t.keys[p] == key
}

// Height returns the number of index levels (excluding the data array).
func (t *Index[K]) Height() int { return len(t.levels) }

// PageSize returns the number of keys per data page.
func (t *Index[K]) PageSize() int { return t.pageSize }

// NumSeparators returns the total number of separator keys stored.
func (t *Index[K]) NumSeparators() int {
	n := 0
	for _, l := range t.levels {
		n += len(l)
	}
	return n
}

// upperBoundMinus1 returns the last slot s in [lo, hi) with lvl[s] <= key,
// or lo if none (descend into the first child for keys below the minimum).
func upperBoundMinus1[K cmp.Ordered](lvl []K, key K, lo, hi int) int {
	// find first slot with lvl[s] > key
	s := lo + sort.Search(hi-lo, func(i int) bool { return lvl[lo+i] > key })
	if s == lo {
		return lo
	}
	return s - 1
}

// lowerBound returns the first index in [lo, hi) with keys[i] >= key, or hi.
func lowerBound[K cmp.Ordered](keys []K, key K, lo, hi int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
