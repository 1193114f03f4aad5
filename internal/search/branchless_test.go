package search

import (
	"cmp"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestBranchlessIdenticalToBinary is the defining contract: Branchless and
// Binary return the same position on every (keys, target, window) input,
// windows included.
func TestBranchlessIdenticalToBinary(t *testing.T) {
	keys := sortedKeys(5000, 21)
	rng := rand.New(rand.NewSource(22))
	for _, target := range probeSet(keys, 21) {
		if got, want := Branchless(keys, target, 0, len(keys)), Binary(keys, target, 0, len(keys)); got != want {
			t.Fatalf("Branchless(%d) = %d, Binary = %d", target, got, want)
		}
		for i := 0; i < 4; i++ {
			lo := rng.Intn(len(keys) + 1)
			hi := lo + rng.Intn(len(keys)+1-lo)
			if got, want := Branchless(keys, target, lo, hi), Binary(keys, target, lo, hi); got != want {
				t.Fatalf("Branchless(%d, [%d,%d)) = %d, Binary = %d", target, lo, hi, got, want)
			}
		}
	}
}

func TestBranchlessEmptyAndSingle(t *testing.T) {
	if Branchless(nil, 5, 0, 0) != 0 {
		t.Fatal("empty branchless")
	}
	one := []uint64{42}
	for _, target := range []uint64{0, 42, 100} {
		if got, want := Branchless(one, target, 0, 1), Binary(one, target, 0, 1); got != want {
			t.Fatalf("Branchless single(%d): got %d want %d", target, got, want)
		}
	}
	// Empty window inside a non-empty array.
	keys := []uint64{1, 3, 5}
	for lo := 0; lo <= 3; lo++ {
		if got := Branchless(keys, 4, lo, lo); got != lo {
			t.Fatalf("empty window at %d: got %d", lo, got)
		}
	}
}

func TestBranchlessDuplicateRuns(t *testing.T) {
	keys := []uint64{1, 5, 5, 5, 9, 9, 12}
	if got := Branchless(keys, 5, 0, len(keys)); got != 1 {
		t.Fatalf("lower bound of 5 = %d, want 1", got)
	}
	if got := Branchless(keys, 9, 0, len(keys)); got != 4 {
		t.Fatalf("lower bound of 9 = %d, want 4", got)
	}
}

func TestQuickBranchlessVariantsAgree(t *testing.T) {
	f := func(raw []uint64, target uint64, predSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i := 1; i < len(raw); i++ {
			for j := i; j > 0 && raw[j] < raw[j-1]; j-- {
				raw[j], raw[j-1] = raw[j-1], raw[j]
			}
		}
		want := refLowerBound(raw, target)
		pred := int(predSeed) % len(raw)
		return Branchless(raw, target, 0, len(raw)) == want &&
			BranchlessWithExpansion(raw, target, pred, pred+1) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestUpperBoundMatchesSortSearch pins the split-key search, for both key
// kinds, against sort.Search over evenly spaced split keys of a sorted key
// set: for split counts on both sides of every power of two, far past 16,
// and past the key count (where split keys repeat), at every split key and
// its neighbours.
func TestUpperBoundMatchesSortSearch(t *testing.T) {
	shardCounts := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 300}
	for _, keys := range [][]uint64{sortedKeys(20_000, 21), sortedKeys(100, 23)} {
		for _, nsh := range shardCounts {
			bounds := splitKeys(keys, nsh)
			probes := []uint64{0, 1, ^uint64(0)}
			for _, b := range bounds {
				probes = append(probes, b-1, b, b+1)
			}
			rng := rand.New(rand.NewSource(22))
			for i := 0; i < 500; i++ {
				probes = append(probes, rng.Uint64()%(keys[len(keys)-1]+1000))
			}
			checkUpperBound(t, nsh, bounds, probes)
		}
	}
	for _, keys := range [][]string{stringSearchKeys(2_000, 24), stringSearchKeys(100, 25)} {
		for _, nsh := range shardCounts {
			bounds := splitKeys(keys, nsh)
			probes := []string{"", "\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\xff"}
			for _, b := range bounds {
				probes = append(probes, b, b+"\x00", b[:len(b)-1])
			}
			checkUpperBound(t, nsh, bounds, probes)
		}
	}
}

// splitKeys returns the nsh-1 evenly spaced split keys of nsh range
// partitions over sorted.
func splitKeys[K cmp.Ordered](sorted []K, nsh int) []K {
	bounds := make([]K, 0, nsh-1)
	for i := 1; i < nsh; i++ {
		bounds = append(bounds, sorted[i*len(sorted)/nsh])
	}
	return bounds
}

func checkUpperBound[K cmp.Ordered](t *testing.T, nsh int, bounds, probes []K) {
	t.Helper()
	for _, k := range probes {
		want := sort.Search(len(bounds), func(i int) bool { return k < bounds[i] })
		if got := UpperBound(bounds, k); got != want {
			t.Fatalf("shards=%d: UpperBound(%v) = %d, want %d", nsh, k, got, want)
		}
	}
}

func BenchmarkBranchless(b *testing.B) {
	keys := sortedKeys(1_000_000, 1)
	probes := probeSet(keys, 2)
	b.ResetTimer()
	var s int
	for i := 0; i < b.N; i++ {
		s += Branchless(keys, probes[i%len(probes)], 0, len(keys))
	}
	sink = s
}

// BenchmarkBranchlessWindow measures the regime the compiled plan runs in:
// tiny model-error windows where a single mispredict would dominate.
func BenchmarkBranchlessWindow(b *testing.B) {
	keys := sortedKeys(1_000_000, 1)
	b.Run("branchless", func(b *testing.B) {
		var s int
		for i := 0; i < b.N; i++ {
			idx := i % (len(keys) - 64)
			s += Branchless(keys, keys[idx+17], idx, idx+64)
		}
		sink = s
	})
	b.Run("binary", func(b *testing.B) {
		var s int
		for i := 0; i < b.N; i++ {
			idx := i % (len(keys) - 64)
			s += Binary(keys, keys[idx+17], idx, idx+64)
		}
		sink = s
	})
}
