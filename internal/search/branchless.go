package search

import "cmp"

// Branchless is a lower-bound search over keys[lo:hi) whose loop carries
// no data-dependent branch: each round tests the last key of the lower
// half of the candidates and advances the base past that half by
// arithmetic on the 0/1 outcome (the compiler materializes it with SETcc;
// it will not emit a conditional move for a value that feeds the next
// load's address). The trip count depends only on hi-lo, so the loop's
// cost is a fixed ~log2(hi-lo) dependent loads — the shape the compiled
// read path (core.Plan) wants, where the error window is already tiny and
// a single mispredict would dominate it.
func Branchless[K cmp.Ordered](keys []K, target K, lo, hi int) int {
	base, n := lo, hi-lo
	for n > 0 {
		half := (n + 1) >> 1 // rounds up: the last round tests the last candidate
		lt := 0
		if keys[base+half-1] < target {
			lt = 1
		}
		base += half & -lt
		n -= half
	}
	return base
}

// BranchlessWithExpansion is the compiled plan's last-mile search: the
// window [lo, hi) (clamped into keys) is searched by Branchless, and
// VerifyOrExpand makes the result the global lower bound for any query
// key, stored or not.
func BranchlessWithExpansion[K cmp.Ordered](keys []K, target K, lo, hi int) int {
	hi = min(max(hi, 0), len(keys))
	lo = min(max(lo, 0), hi)
	return VerifyOrExpand(keys, target, Branchless(keys, target, lo, hi), lo, hi)
}

// UpperBound returns the number of bounds <= key: the range partition
// whose [bounds[i-1], bounds[i]) window contains key, for split keys
// bounds in ascending order (repeats allowed). It is the one split-key
// search, routing a key to its cluster node (internal/router). Like Branchless its trip count depends
// only on len(bounds) and its data-dependent step is SETcc arithmetic, so
// a batch of uniform probes has no branch to mispredict on it.
func UpperBound[K cmp.Ordered](bounds []K, key K) int {
	base, n := 0, len(bounds)
	for n > 0 {
		half := (n + 1) >> 1
		le := 0
		if bounds[base+half-1] <= key {
			le = 1
		}
		base += half & -le
		n -= half
	}
	return base
}
