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

// FuzzLowerBoundSearch differentially fuzzes every function of the
// package against sort.Search, on random keys and windows, including
// empty windows, duplicate-adjacent targets, and out-of-range probes: the
// window-restricted strategies (Binary, Branchless, ModelBiasedBinary,
// BiasedQuaternary, Interpolated) against the windowed lower bound, each
// of them followed by VerifyOrExpand, BranchlessWithExpansion and
// Exponential against the global one, and UpperBound against the count of
// keys <= target. The generic functions run in both key types: the string
// keys mapped by stringKey must answer what the uint64 ones do.
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

		want := answers{
			window: lowerBound(keys, target, lo, hi),
			global: lowerBound(keys, target, 0, n),
			upper:  sort.Search(n, func(i int) bool { return keys[i] > target }),
		}
		checkAll(t, keys, target, lo, hi, pred, sigma, want)
		if got := Interpolated(keys, target, lo, hi); got != want.window {
			t.Fatalf("Interpolated(%v, %d, [%d,%d)) = %d, want %d", keys, target, lo, hi, got, want.window)
		}
		if got := VerifyOrExpand(keys, target, Interpolated(keys, target, lo, hi), lo, hi); got != want.global {
			t.Fatalf("Interpolated+VerifyOrExpand(%v, %d, [%d,%d)) = %d, want %d", keys, target, lo, hi, got, want.global)
		}

		skeys := make([]string, n)
		for i, k := range keys {
			skeys[i] = stringKey(k)
		}
		st := stringKey(target)
		if got := lo + sort.SearchStrings(skeys[lo:hi], st); got != want.window {
			t.Fatalf("mapping broke order: sort.SearchStrings = %d, want %d", got, want.window)
		}
		checkAll(t, skeys, st, lo, hi, pred, sigma, want)
	})
}

// answers are the sort.Search references for one fuzz input.
type answers struct{ window, global, upper int }

// checkAll runs every generic function over one key type.
func checkAll[K cmp.Ordered](t *testing.T, keys []K, target K, lo, hi, pred, sigma int, want answers) {
	t.Helper()
	windowed := []struct {
		name string
		got  int
	}{
		{"Binary", Binary(keys, target, lo, hi)},
		{"Branchless", Branchless(keys, target, lo, hi)},
		{"ModelBiasedBinary", ModelBiasedBinary(keys, target, lo, hi, pred)},
		{"BiasedQuaternary", BiasedQuaternary(keys, target, lo, hi, pred, sigma)},
	}
	for _, c := range windowed {
		if c.got != want.window {
			t.Fatalf("%s(%v, %v, [%d,%d), pred=%d, sigma=%d) = %d, want %d", c.name, keys, target, lo, hi, pred, sigma, c.got, want.window)
		}
		if got := VerifyOrExpand(keys, target, c.got, lo, hi); got != want.global {
			t.Fatalf("%s+VerifyOrExpand(%v, %v, [%d,%d)) = %d, want %d", c.name, keys, target, lo, hi, got, want.global)
		}
	}
	if got := BranchlessWithExpansion(keys, target, lo, hi); got != want.global {
		t.Fatalf("BranchlessWithExpansion(%v, %v, [%d,%d)) = %d, want %d", keys, target, lo, hi, got, want.global)
	}
	if got := Exponential(keys, target, len(keys), pred); got != want.global {
		t.Fatalf("Exponential(%v, %v, pred=%d) = %d, want %d", keys, target, pred, got, want.global)
	}
	if got := UpperBound(keys, target); got != want.upper {
		t.Fatalf("UpperBound(%v, %v) = %d, want %d", keys, target, got, want.upper)
	}
}
