package router

import (
	"cmp"
	"math"

	"learnedindex/internal/scan"
	"learnedindex/internal/server"
)

// remoteCursor adapts one node's paged Scan RPC to scan.Cursor, so the
// same loser tree that merges segments inside a store merges node
// streams across the wire. Each page fetch goes through the endpoint's
// retrying do(), and the first unrecoverable error lands in errp — the
// cursor then reports exhausted, and the scan surfaces the error via Err.
type remoteCursor[K cmp.Ordered] struct {
	fetch func(from K, limit int) ([]K, bool, error)
	succ  func(K) (K, bool)
	limit int
	errp  *error

	page []K
	i    int
	more bool
}

func (c *remoteCursor[K]) load(from K) {
	c.i = 0
	if *c.errp != nil {
		c.page, c.more = nil, false
		return
	}
	page, more, err := c.fetch(from, c.limit)
	if err != nil {
		if *c.errp == nil {
			*c.errp = err
		}
		c.page, c.more = nil, false
		return
	}
	c.page, c.more = page, more
}

func (c *remoteCursor[K]) Seek(key K) bool {
	c.load(key)
	return c.i < len(c.page)
}

func (c *remoteCursor[K]) Next() bool {
	c.i++
	if c.i < len(c.page) {
		return true
	}
	if !c.more || len(c.page) == 0 {
		return false
	}
	from, ok := c.succ(c.page[len(c.page)-1])
	if !ok {
		return false
	}
	c.load(from)
	return c.i < len(c.page)
}

func (c *remoteCursor[K]) Key() K { return c.page[c.i] }

func (c *remoteCursor[K]) Release() { c.page = nil }

// RangeScan streams a cross-node merged scan in ascending key order. The
// zero of Err must be checked after iteration: a node that stayed
// unreachable past the retry budget ends the stream early with the cause
// here rather than silently truncating.
type RangeScan[K cmp.Ordered] struct {
	it  *scan.Iterator[K]
	err error
}

// Next advances to the next key, reporting whether one exists. After a
// transport failure it returns false immediately — check Err.
func (s *RangeScan[K]) Next() bool {
	if s.err != nil {
		return false
	}
	return s.it.Next()
}

// Key returns the current key; valid only after a true Next.
func (s *RangeScan[K]) Key() K { return s.it.Key() }

// Err returns the first per-node failure, if any.
func (s *RangeScan[K]) Err() error { return s.err }

// Close releases the merge iterator and its cursors.
func (s *RangeScan[K]) Close() { s.it.Close() }

// rangeScan opens the merged stream over [lo, hi) — [lo, ∞) when bounded is
// false — for either key mode; succ is the key mode's successor, which is
// where a node's next page resumes.
func rangeScan[K server.Key](r *Router, lo, hi K, bounded bool, fences []K, succ func(K) (K, bool)) *RangeScan[K] {
	rs := &RangeScan[K]{it: scan.Get[K]()}
	contacted := 0
	for i := range r.nodes {
		clo, chi, cbounded, ok := clip(lo, hi, bounded, fences, i)
		if !ok {
			continue
		}
		contacted++
		ep := r.readEndpoint(r.nodes[i])
		cur := &remoteCursor[K]{limit: r.opt.ScanPageKeys, errp: &rs.err, succ: succ}
		cur.fetch = func(from K, limit int) (page []K, more bool, err error) {
			if from < clo {
				from = clo
			}
			err = ep.do(func(c *server.Client) error {
				var e error
				page, more, e = server.ScanPage(c, from, chi, cbounded, limit)
				return e
			})
			return page, more, err
		}
		rs.it.Add(cur)
	}
	r.tally(contacted, true)
	if bounded {
		rs.it.Start(lo, hi, nil)
	} else {
		rs.it.StartFrom(lo, nil)
	}
	return rs
}

// Scan streams every key in [lo, hi) across all nodes in ascending order,
// merging per-node pages through the loser tree. Nodes whose fence range
// cannot intersect [lo, hi) are pruned. Check Err after the stream ends.
func (r *Router) Scan(lo, hi uint64) *RangeScan[uint64] {
	r.mustU64()
	return rangeScan(r, lo, hi, true, r.opt.Fences, u64Succ)
}

// ScanFrom streams every key >= lo, math.MaxUint64 included.
func (r *Router) ScanFrom(lo uint64) *RangeScan[uint64] {
	r.mustU64()
	return rangeScan(r, lo, 0, false, r.opt.Fences, u64Succ)
}

// u64Succ is the uint64 successor a node's next page resumes at; the
// maximal key has none.
func u64Succ(k uint64) (uint64, bool) { return k + 1, k != math.MaxUint64 }

// ScanBatch appends every key in [lo, hi) to dst in ascending order and
// returns it, or the first node failure.
func (r *Router) ScanBatch(lo, hi uint64, dst []uint64) ([]uint64, error) {
	return drain(r.Scan(lo, hi), dst)
}

// strSucc: the successor of a string under lower-bound resume is the same
// string with a NUL appended, the smallest strictly greater key.
func strSucc(k string) (string, bool) { return k + "\x00", true }

// ScanString streams every key in [lo, hi) of a string-keyed router.
func (r *Router) ScanString(lo, hi string) *RangeScan[string] {
	r.mustStr()
	return rangeScan(r, lo, hi, true, r.opt.FencesStr, strSucc)
}

// ScanStringFrom streams every key >= lo of a string-keyed router.
func (r *Router) ScanStringFrom(lo string) *RangeScan[string] {
	r.mustStr()
	return rangeScan(r, lo, "", false, r.opt.FencesStr, strSucc)
}

// ScanBatchString appends every key in [lo, hi) to dst in ascending order
// and returns it, or the first node failure.
func (r *Router) ScanBatchString(lo, hi string, dst []string) ([]string, error) {
	return drain(r.ScanString(lo, hi), dst)
}

func drain[K cmp.Ordered](s *RangeScan[K], dst []K) ([]K, error) {
	defer s.Close()
	for s.Next() {
		dst = append(dst, s.Key())
	}
	return dst, s.Err()
}
