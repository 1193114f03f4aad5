package search

import (
	"cmp"
	"encoding/binary"
	"sort"
	"testing"
)

// lowerBound is the reference semantics every strategy is fuzzed against:
// sort.Search over keys[lo:hi).
func lowerBound(keys []uint64, target uint64, lo, hi int) int {
	return lo + sort.Search(hi-lo, func(i int) bool { return keys[lo+i] >= target })
}

// verifyOrExpand mirrors core's window-boundary verification: a
// window-restricted result is re-searched with expansion when it sits
// incorrectly on the boundary, which turns any window-correct strategy
// into a globally correct one.
func verifyOrExpand[K cmp.Ordered](keys []K, target K, pos, lo, hi int) int {
	if pos == lo && lo > 0 && keys[lo-1] >= target {
		return BoundedWithExpansion(keys, target, 0, lo+1)
	}
	if pos == hi && hi < len(keys) {
		return BoundedWithExpansion(keys, target, hi-1, len(keys))
	}
	return pos
}

// keysFromBytes derives a sorted (duplicates allowed) key array from raw
// fuzz bytes: one key per 2-byte chunk, kept small so duplicate-adjacent
// targets and boundary collisions are common.
func keysFromBytes(raw []byte) []uint64 {
	keys := make([]uint64, 0, len(raw)/2)
	for i := 0; i+2 <= len(raw); i += 2 {
		keys = append(keys, uint64(binary.LittleEndian.Uint16(raw[i:])))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// stringKey maps a fuzz key (at most 0xFFFF) to its 2-byte big-endian
// string and any larger target to a 3-byte string above all of them, so
// string order over the mapped keys is uint64 order over the originals.
func stringKey(k uint64) string {
	if k > 0xFFFF {
		return "\xff\xff\xff"
	}
	return string([]byte{byte(k >> 8), byte(k)})
}

// FuzzLowerBoundSearch differentially fuzzes every last-mile strategy —
// Branchless, Binary, ModelBiasedBinary/Branchless, Interpolated,
// BiasedQuaternary (+verify), and Exponential — against sort.Search
// lower-bound semantics, on random keys and windows, including empty
// windows, duplicate-adjacent targets, and out-of-range probes. The
// generic strategies also run their string instantiation over the keys
// mapped by stringKey, which must answer what the uint64 one does.
func FuzzLowerBoundSearch(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 0, 9, 0}, uint64(2), uint(0), uint(4), uint(1), uint(1))
	f.Add([]byte{}, uint64(5), uint(0), uint(0), uint(0), uint(0))                         // empty keys
	f.Add([]byte{7, 0, 7, 0, 7, 0}, uint64(7), uint(1), uint(1), uint(0), uint(2))         // empty window on dups
	f.Add([]byte{0, 0, 255, 255}, uint64(1<<40), uint(0), uint(2), uint(9), uint(3))       // out-of-range probe
	f.Add([]byte{5, 0, 5, 0, 6, 0, 6, 0}, uint64(6), uint(1), uint(3), uint(2), uint(1))   // duplicate-adjacent
	f.Add([]byte{1, 0, 2, 0, 3, 0, 4, 0}, uint64(0), uint(3), uint(4), uint(200), uint(0)) // window right of answer

	f.Fuzz(func(t *testing.T, raw []byte, target uint64, loRaw, hiRaw, predRaw, sigmaRaw uint) {
		keys := keysFromBytes(raw)
		n := len(keys)
		lo := int(loRaw % uint(n+1))
		hi := int(hiRaw % uint(n+1))
		if lo > hi {
			lo, hi = hi, lo
		}
		pred := int(predRaw%uint(n+2)) - 1 // may fall outside [lo, hi)
		sigma := int(sigmaRaw % 8)

		global := lowerBound(keys, target, 0, n)
		window := lowerBound(keys, target, lo, hi)

		// Window-restricted strategies must agree with the windowed
		// reference — and with each other.
		if got := Binary(keys, target, lo, hi); got != window {
			t.Fatalf("Binary(%v, %d, [%d,%d)) = %d, want %d", keys, target, lo, hi, got, window)
		}
		if got := Branchless(keys, target, lo, hi); got != window {
			t.Fatalf("Branchless(%v, %d, [%d,%d)) = %d, want %d", keys, target, lo, hi, got, window)
		}
		if got := ModelBiasedBinary(keys, target, lo, hi, pred); got != window {
			t.Fatalf("ModelBiasedBinary(pred=%d) = %d, want %d", pred, got, window)
		}
		if got := ModelBiasedBranchless(keys, target, lo, hi, pred); got != window {
			t.Fatalf("ModelBiasedBranchless(pred=%d) = %d, want %d", pred, got, window)
		}
		if got := Interpolated(keys, target, lo, hi); got != window {
			t.Fatalf("Interpolated([%d,%d)) = %d, want %d", lo, hi, got, window)
		}
		if got := BiasedQuaternary(keys, target, lo, hi, pred, sigma); got != window {
			t.Fatalf("BiasedQuaternary(pred=%d, sigma=%d) = %d, want %d", pred, sigma, got, window)
		}

		// Globally correct strategies must resolve the true lower bound
		// from any window or prediction.
		if got := BoundedWithExpansion(keys, target, lo, hi); got != global {
			t.Fatalf("BoundedWithExpansion([%d,%d)) = %d, want %d", lo, hi, got, global)
		}
		if got := BranchlessWithExpansion(keys, target, lo, hi); got != global {
			t.Fatalf("BranchlessWithExpansion([%d,%d)) = %d, want %d", lo, hi, got, global)
		}
		if got := verifyOrExpand(keys, target, BiasedQuaternary(keys, target, lo, hi, pred, sigma), lo, hi); got != global {
			t.Fatalf("BiasedQuaternary+verify = %d, want %d", got, global)
		}
		if got := verifyOrExpand(keys, target, ModelBiasedBranchless(keys, target, lo, hi, pred), lo, hi); got != global {
			t.Fatalf("ModelBiasedBranchless+verify = %d, want %d", got, global)
		}
		if n > 0 {
			if got := Exponential(keys, target, n, pred); got != global {
				t.Fatalf("Exponential(pred=%d) = %d, want %d", pred, got, global)
			}
		}

		// The string instantiation of every generic strategy.
		skeys := make([]string, n)
		for i, k := range keys {
			skeys[i] = stringKey(k)
		}
		st := stringKey(target)
		if got := lo + sort.SearchStrings(skeys[lo:hi], st); got != window {
			t.Fatalf("mapping broke order: sort.SearchStrings = %d, want %d", got, window)
		}
		for _, c := range []struct {
			name      string
			got, want int
		}{
			{"Binary", Binary(skeys, st, lo, hi), window},
			{"ModelBiasedBinary", ModelBiasedBinary(skeys, st, lo, hi, pred), window},
			{"BiasedQuaternary", BiasedQuaternary(skeys, st, lo, hi, pred, sigma), window},
			{"BoundedWithExpansion", BoundedWithExpansion(skeys, st, lo, hi), global},
			{"BiasedQuaternary+verify", verifyOrExpand(skeys, st, BiasedQuaternary(skeys, st, lo, hi, pred, sigma), lo, hi), global},
		} {
			if c.got != c.want {
				t.Fatalf("string %s(%q, [%d,%d), pred=%d, sigma=%d) = %d, want %d", c.name, st, lo, hi, pred, sigma, c.got, c.want)
			}
		}
	})
}
