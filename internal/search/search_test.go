package search

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refLowerBound is the oracle.
func refLowerBound(keys []uint64, target uint64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= target })
}

func sortedKeys(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	m := make(map[uint64]struct{}, n)
	for len(m) < n {
		m[rng.Uint64()%(uint64(n)*100)] = struct{}{}
	}
	out := make([]uint64, 0, n)
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestBinaryMatchesOracle(t *testing.T) {
	keys := sortedKeys(5000, 1)
	for _, target := range probeSet(keys, 1) {
		want := refLowerBound(keys, target)
		if got := Binary(keys, target, 0, len(keys)); got != want {
			t.Fatalf("Binary(%d) = %d, want %d", target, got, want)
		}
	}
}

// probeSet mixes existing keys, neighbors, extremes, and random values.
func probeSet(keys []uint64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	probes := []uint64{0, keys[0], keys[len(keys)-1], keys[len(keys)-1] + 1, ^uint64(0)}
	for i := 0; i < 2000; i++ {
		k := keys[rng.Intn(len(keys))]
		probes = append(probes, k, k+1, k-1, rng.Uint64()%(keys[len(keys)-1]+10))
	}
	return probes
}

func TestModelBiasedBinaryMatchesOracle(t *testing.T) {
	keys := sortedKeys(5000, 2)
	rng := rand.New(rand.NewSource(3))
	for _, target := range probeSet(keys, 2) {
		want := refLowerBound(keys, target)
		// Any prediction — even absurd — must not break correctness.
		for _, pred := range []int{0, len(keys) - 1, want, want + rng.Intn(100) - 50, rng.Intn(len(keys))} {
			if got := ModelBiasedBinary(keys, target, 0, len(keys), pred); got != want {
				t.Fatalf("ModelBiasedBinary(%d, pred=%d) = %d, want %d", target, pred, got, want)
			}
		}
	}
}

func TestBiasedQuaternaryMatchesOracle(t *testing.T) {
	keys := sortedKeys(5000, 4)
	rng := rand.New(rand.NewSource(5))
	for _, target := range probeSet(keys, 4) {
		want := refLowerBound(keys, target)
		for _, sigma := range []int{1, 8, 64, 1024} {
			pred := want + rng.Intn(2*sigma+1) - sigma
			if got := BiasedQuaternary(keys, target, 0, len(keys), pred, sigma); got != want {
				t.Fatalf("BiasedQuaternary(%d, pred=%d, σ=%d) = %d, want %d", target, pred, sigma, got, want)
			}
		}
	}
}

func TestExponentialMatchesOracle(t *testing.T) {
	keys := sortedKeys(5000, 6)
	rng := rand.New(rand.NewSource(7))
	for _, target := range probeSet(keys, 6) {
		want := refLowerBound(keys, target)
		for _, pred := range []int{0, len(keys) - 1, want, want + rng.Intn(1000) - 500} {
			if got := Exponential(keys, target, len(keys), pred); got != want {
				t.Fatalf("Exponential(%d, pred=%d) = %d, want %d", target, pred, got, want)
			}
		}
	}
}

func TestInterpolationMatchesOracle(t *testing.T) {
	keys := sortedKeys(5000, 8)
	for _, target := range probeSet(keys, 8) {
		want := refLowerBound(keys, target)
		if got := Interpolated(keys, target, 0, len(keys)); got != want {
			t.Fatalf("Interpolated(%d) = %d, want %d", target, got, want)
		}
	}
}

func TestInterpolationSkewedData(t *testing.T) {
	// Heavy skew is interpolation search's worst case; must stay correct.
	keys := make([]uint64, 0, 1000)
	v := uint64(1)
	for i := 0; i < 1000; i++ {
		keys = append(keys, v)
		v += uint64(i*i + 1)
	}
	for _, target := range probeSet(keys, 9) {
		want := refLowerBound(keys, target)
		if got := Interpolated(keys, target, 0, len(keys)); got != want {
			t.Fatalf("Interpolated(%d) = %d, want %d", target, got, want)
		}
	}
}

func TestBranchlessWithExpansionCorrectEvenWithWrongWindow(t *testing.T) {
	keys := sortedKeys(3000, 10)
	rng := rand.New(rand.NewSource(11))
	for _, target := range probeSet(keys, 10) {
		want := refLowerBound(keys, target)
		// Windows that may exclude the answer entirely.
		for i := 0; i < 5; i++ {
			lo := rng.Intn(len(keys))
			hi := lo + rng.Intn(50)
			if got := BranchlessWithExpansion(keys, target, lo, hi); got != want {
				t.Fatalf("BranchlessWithExpansion(%d, [%d,%d)) = %d, want %d", target, lo, hi, got, want)
			}
		}
	}
}

func TestSearchEmptyAndSingle(t *testing.T) {
	if Binary(nil, 5, 0, 0) != 0 {
		t.Fatal("empty binary")
	}
	one := []uint64{42}
	for _, target := range []uint64{0, 42, 100} {
		want := refLowerBound(one, target)
		if got := Binary(one, target, 0, 1); got != want {
			t.Fatalf("Binary single: got %d want %d", got, want)
		}
		if got := Exponential(one, target, 1, 0); got != want {
			t.Fatalf("Exponential single: got %d want %d", got, want)
		}
		if got := BranchlessWithExpansion(one, target, 0, 1); got != want {
			t.Fatalf("BranchlessWithExpansion single: got %d want %d", got, want)
		}
		if got := Interpolated(one, target, 0, 1); got != want {
			t.Fatalf("Interpolated single: got %d want %d", got, want)
		}
	}
}

func TestDuplicateRuns(t *testing.T) {
	// Lower bound must point at the first of a duplicate run.
	keys := []uint64{1, 5, 5, 5, 9, 9, 12}
	for _, strat := range []struct {
		name string
		fn   func(target uint64) int
	}{
		{"binary", func(x uint64) int { return Binary(keys, x, 0, len(keys)) }},
		{"biased", func(x uint64) int { return ModelBiasedBinary(keys, x, 0, len(keys), 3) }},
		{"quaternary", func(x uint64) int { return BiasedQuaternary(keys, x, 0, len(keys), 3, 2) }},
		{"exponential", func(x uint64) int { return Exponential(keys, x, len(keys), 3) }},
		{"interpolated", func(x uint64) int { return Interpolated(keys, x, 0, len(keys)) }},
	} {
		if got := strat.fn(5); got != 1 {
			t.Fatalf("%s: lower bound of 5 = %d, want 1", strat.name, got)
		}
		if got := strat.fn(9); got != 4 {
			t.Fatalf("%s: lower bound of 9 = %d, want 4", strat.name, got)
		}
	}
}

// Property: all strategies agree with the oracle on random inputs.
func TestQuickAllStrategiesAgree(t *testing.T) {
	f := func(raw []uint64, target uint64, predSeed uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		want := refLowerBound(raw, target)
		pred := int(predSeed) % len(raw)
		return Binary(raw, target, 0, len(raw)) == want &&
			ModelBiasedBinary(raw, target, 0, len(raw), pred) == want &&
			BiasedQuaternary(raw, target, 0, len(raw), pred, 1+int(predSeed)%7) == want &&
			Exponential(raw, target, len(raw), pred) == want &&
			Interpolated(raw, target, 0, len(raw)) == want &&
			BranchlessWithExpansion(raw, target, pred, pred+1) == want
	}
	cfg := &quick.Config{MaxCount: 3000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStringSearchMatchesOracle(t *testing.T) {
	keys := []string{"aa", "ab", "ba", "bb", "ca", "cb", "da"}
	oracle := func(target string) int {
		return sort.SearchStrings(keys, target)
	}
	probes := []string{"", "a", "aa", "ab", "abc", "b", "bz", "da", "zz"}
	for _, p := range probes {
		want := oracle(p)
		if got := Binary(keys, p, 0, len(keys)); got != want {
			t.Fatalf("Binary(%q) = %d, want %d", p, got, want)
		}
		for pred := 0; pred < len(keys); pred++ {
			if got := ModelBiasedBinary(keys, p, 0, len(keys), pred); got != want {
				t.Fatalf("ModelBiasedBinary(%q, pred=%d) = %d, want %d", p, pred, got, want)
			}
			if got := BiasedQuaternary(keys, p, 0, len(keys), pred, 2); got != want {
				t.Fatalf("BiasedQuaternary(%q, pred=%d) = %d, want %d", p, pred, got, want)
			}
			if got := BranchlessWithExpansion(keys, p, pred, pred+1); got != want {
				t.Fatalf("BranchlessWithExpansion(%q, win=%d) = %d, want %d", p, pred, got, want)
			}
		}
	}
}

func BenchmarkBinary(b *testing.B) {
	keys := sortedKeys(1_000_000, 1)
	probes := probeSet(keys, 2)
	b.ResetTimer()
	var s int
	for i := 0; i < b.N; i++ {
		s += Binary(keys, probes[i%len(probes)], 0, len(keys))
	}
	sink = s
}

func BenchmarkModelBiasedPerfectPrediction(b *testing.B) {
	keys := sortedKeys(1_000_000, 1)
	b.ResetTimer()
	var s int
	for i := 0; i < b.N; i++ {
		idx := i % len(keys)
		lo, hi := idx-8, idx+8
		if lo < 0 {
			lo = 0
		}
		if hi > len(keys) {
			hi = len(keys)
		}
		s += ModelBiasedBinary(keys, keys[idx], lo, hi, idx)
	}
	sink = s
}

var sink int
