// Package search implements the "last mile" search strategies of §3.4.
//
// A learned range index predicts a position and bounds the residual error;
// these routines locate the exact lower bound inside the bounded region. All
// functions return lower_bound semantics: the index in [lo, hi] of the first
// key >= target, where hi may equal len(keys) conceptually (the returned
// position can be one past the last in-range element).
//
// The paper's strategies:
//
//   - Binary: classic binary search (the baseline; "repeatedly reported"
//     fastest for small payloads).
//   - ModelBiasedBinary: binary search whose first middle point is the model
//     prediction.
//   - BiasedQuaternary: three initial split points pos-σ, pos, pos+σ, then
//     quaternary search; exploits the fact that the model predicts the
//     position itself, not just a page.
//   - Exponential: doubling search outward from the prediction; needs no
//     stored error bounds ("assuming a normal distributed error", §3.4).
//   - Interpolated: interpolation search, the Figure 5 fixed-size B-Tree
//     baseline's page search.
//
// Beside them: Branchless, the bisection every compiled uint64 plan runs;
// VerifyOrExpand, the §3.4 window check that makes any window-restricted
// result globally correct (BranchlessWithExpansion is Branchless followed
// by it); and UpperBound, the split-key search that routes a key to its
// range partition (a cluster node).
//
// The compiled uint64 RMI runs BranchlessWithExpansion only; the string
// RMI (§3.5) selects one of the paper's strategies per index, and the
// experiments race them all. Every function but Interpolated only compares
// keys and is generic over any ordered key; Go stencils it per key shape,
// so the uint64 compare stays one instruction. Interpolated does
// arithmetic on key values and stays uint64-only.
package search

import "cmp"

// Binary returns the lower bound of target in keys[lo:hi] using classic
// binary search. lo and hi follow half-open [lo, hi) convention.
func Binary[K cmp.Ordered](keys []K, target K, lo, hi int) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ModelBiasedBinary is binary search over [lo, hi) whose first probe is the
// model prediction pred instead of the midpoint (§3.4 "Model Biased
// Search"). When the prediction is good the search terminates in far fewer
// probes than log2(hi-lo).
func ModelBiasedBinary[K cmp.Ordered](keys []K, target K, lo, hi, pred int) int {
	if pred < lo {
		pred = lo
	}
	if pred >= hi {
		pred = hi - 1
	}
	if lo >= hi {
		return lo
	}
	if keys[pred] < target {
		lo = pred + 1
	} else {
		hi = pred
	}
	return Binary(keys, target, lo, hi)
}

// BiasedQuaternary implements the paper's biased quaternary search: the
// three initial middle points are pred-sigma, pred, pred+sigma (σ being the
// model's standard error), after which it continues with plain quaternary
// search. On hardware this lets the prefetcher pull all three probe points
// at once; the algorithmic structure is preserved here.
func BiasedQuaternary[K cmp.Ordered](keys []K, target K, lo, hi, pred, sigma int) int {
	if lo >= hi {
		return lo
	}
	if sigma < 1 {
		sigma = 1
	}
	q1, q2, q3 := pred-sigma, pred, pred+sigma
	lo, hi = probe3(keys, target, lo, hi, q1, q2, q3)
	// Continue with standard quaternary search until the range is small,
	// then finish with binary search.
	for hi-lo > 8 {
		quarter := (hi - lo) / 4
		q1, q2, q3 = lo+quarter, lo+2*quarter, lo+3*quarter
		lo, hi = probe3(keys, target, lo, hi, q1, q2, q3)
	}
	return Binary(keys, target, lo, hi)
}

// probe3 narrows [lo, hi) using three ordered probe points, clamping them
// into range first.
func probe3[K cmp.Ordered](keys []K, target K, lo, hi, q1, q2, q3 int) (int, int) {
	clamp := func(x int) int {
		if x < lo {
			return lo
		}
		if x >= hi {
			return hi - 1
		}
		return x
	}
	q1, q2, q3 = clamp(q1), clamp(q2), clamp(q3)
	switch {
	case keys[q1] >= target:
		return lo, q1
	case keys[q3] < target:
		return q3 + 1, hi
	case keys[q2] < target:
		return q2 + 1, q3 + 1 // answer in (q2, q3]
	default:
		return q1 + 1, q2 + 1 // answer in (q1, q2]
	}
}

// Exponential searches keys[0:n) outward from pred with doubling steps
// until the target is bracketed, then finishes with binary search. It
// requires no stored error bounds (§3.4).
func Exponential[K cmp.Ordered](keys []K, target K, n, pred int) int {
	if pred < 0 {
		pred = 0
	}
	if pred >= n {
		pred = n - 1
	}
	if n == 0 {
		return 0
	}
	if keys[pred] >= target {
		// search left: find lo with keys[lo] < target
		step := 1
		hi := pred
		lo := pred - step
		for lo >= 0 && keys[lo] >= target {
			hi = lo
			step <<= 1
			lo = pred - step
		}
		if lo < 0 {
			lo = 0
		} else {
			lo++ // keys[lo] < target, answer in (lo, hi]
		}
		return Binary(keys, target, lo, hi)
	}
	// search right: find hi with keys[hi] >= target
	step := 1
	lo := pred + 1
	hi := pred + step
	for hi < n && keys[hi] < target {
		lo = hi + 1
		step <<= 1
		hi = pred + step
	}
	if hi > n-1 {
		hi = n - 1
		if keys[hi] < target {
			return n
		}
	}
	return Binary(keys, target, lo, hi+1)
}

// Interpolated is a lower-bound search over keys[lo:hi) that picks probe
// points by linear interpolation between the window endpoints' key values
// instead of bisecting: on locally smooth data (what a well-fit leaf model
// implies about its window, or a B-Tree page of uniform keys) each probe
// cuts the window by a large factor, so the dependent cache-miss chain is
// 2–3 loads instead of log2(hi-lo). When interpolation stops converging
// the remainder is finished by Branchless.
func Interpolated(keys []uint64, target uint64, lo, hi int) int {
	const maxIter = 8 // interpolation beyond this means adversarial data
	h := hi - 1
	for iter := 0; lo < h && iter < maxIter; iter++ {
		kl, kh := keys[lo], keys[h]
		if target <= kl {
			return lo
		}
		if target > kh {
			return h + 1
		}
		// Position estimate by linear interpolation between endpoints,
		// nudged off the endpoints so every probe shrinks the window.
		span := float64(kh - kl)
		mid := lo + int(float64(target-kl)/span*float64(h-lo))
		if mid <= lo {
			mid = lo + 1
		}
		if mid > h {
			mid = h
		}
		if keys[mid] < target {
			lo = mid + 1
		} else if mid > lo && keys[mid-1] >= target {
			h = mid - 1
		} else {
			return mid
		}
	}
	return Branchless(keys, target, lo, h+1)
}

// VerifyOrExpand is the §3.4 window check: pos is the lower bound of
// target within the window [lo, hi), as any window-restricted strategy
// returns it, and the result is the lower bound over all of keys. A
// model's error bounds only hold for stored keys (and a non-monotonic
// model can route a key past its window), so when pos sits on a window
// edge that the neighbouring key says is wrong, the window grows
// geometrically towards the answer and is searched again ("we
// incrementally adjust the search area").
func VerifyOrExpand[K cmp.Ordered](keys []K, target K, pos, lo, hi int) int {
	n := len(keys)
	for {
		expanded := false
		if pos == lo && lo > 0 && keys[lo-1] >= target {
			// answer may lie left of the window
			lo -= 2 * (hi - lo + 1)
			expanded = true
		}
		if pos == hi && hi < n && (hi == 0 || keys[hi-1] < target) {
			// answer may lie right of the window
			hi += 2 * (hi - lo + 1)
			expanded = true
		}
		if !expanded {
			return pos
		}
		lo, hi = max(lo, 0), min(hi, n)
		pos = Branchless(keys, target, lo, hi)
	}
}
