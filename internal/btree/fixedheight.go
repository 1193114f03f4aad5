package btree

import "learnedindex/internal/search"

// FixedSize is the Figure 5 baseline "Fixed-size B-Tree w/ interpolation
// search" [1]: a B-Tree whose height is chosen so the whole index fits a
// byte budget, with interpolation search used both inside index nodes and
// inside the (large) data pages the sparse index leaves behind.
type FixedSize struct {
	keys     []uint64
	pageSize int
	levels   [][]uint64
	fanout   int
}

// NewFixedSize builds a fixed-size B-Tree over sorted keys whose index
// arrays total at most budgetBytes. The page size (keys per indexed page)
// is grown until the separator arrays fit the budget.
func NewFixedSize(keys []uint64, budgetBytes int) *FixedSize {
	const fanout = 64
	pageSize := 16
	for {
		sz := separatorsSize(len(keys), pageSize, fanout)
		if sz <= budgetBytes || pageSize > len(keys) {
			break
		}
		pageSize *= 2
	}
	t := &FixedSize{keys: keys, pageSize: pageSize, fanout: fanout}
	if len(keys) == 0 {
		return t
	}
	nPages := (len(keys) + pageSize - 1) / pageSize
	l0 := make([]uint64, nPages)
	for i := 0; i < nPages; i++ {
		l0[i] = keys[i*pageSize]
	}
	t.levels = append(t.levels, l0)
	for len(t.levels[len(t.levels)-1]) > fanout {
		below := t.levels[len(t.levels)-1]
		n := (len(below) + fanout - 1) / fanout
		lvl := make([]uint64, n)
		for i := 0; i < n; i++ {
			lvl[i] = below[i*fanout]
		}
		t.levels = append(t.levels, lvl)
	}
	return t
}

func separatorsSize(n, pageSize, fanout int) int {
	total := 0
	lvl := (n + pageSize - 1) / pageSize
	for {
		total += lvl * 8
		if lvl <= fanout {
			break
		}
		lvl = (lvl + fanout - 1) / fanout
	}
	return total
}

// Lookup returns the lower-bound position of key using interpolation search
// at every level and within the final data page.
func (t *FixedSize) Lookup(key uint64) int {
	n := len(t.keys)
	if n == 0 {
		return 0
	}
	top := t.levels[len(t.levels)-1]
	slot := interpUpperMinus1(top, key, 0, len(top))
	for li := len(t.levels) - 2; li >= 0; li-- {
		lvl := t.levels[li]
		lo := slot * t.fanout
		hi := lo + t.fanout
		if hi > len(lvl) {
			hi = len(lvl)
		}
		slot = interpUpperMinus1(lvl, key, lo, hi)
	}
	lo := slot * t.pageSize
	hi := lo + t.pageSize
	if hi > n {
		hi = n
	}
	return search.Interpolated(t.keys, key, lo, hi)
}

// Contains reports whether key is present.
func (t *FixedSize) Contains(key uint64) bool {
	p := t.Lookup(key)
	return p < len(t.keys) && t.keys[p] == key
}

// SizeBytes returns the footprint of the separator arrays.
func (t *FixedSize) SizeBytes() int {
	total := 0
	for _, lvl := range t.levels {
		total += len(lvl) * 8
	}
	return total
}

// PageSize returns the resulting keys-per-page after fitting the budget.
func (t *FixedSize) PageSize() int { return t.pageSize }

// interpUpperMinus1 returns the last slot s in [lo, hi) with lvl[s] <= key
// using interpolation search (or lo if none).
func interpUpperMinus1(lvl []uint64, key uint64, lo, hi int) int {
	s := search.Interpolated(lvl, key, lo, hi) // first slot >= key
	if s < hi && lvl[s] == key {
		return s
	}
	if s == lo {
		return lo
	}
	return s - 1
}
