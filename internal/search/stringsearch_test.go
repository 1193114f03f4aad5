package search

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// stringSearchKeys builds a sorted key set with runs of adjacent
// duplicates-removed near-equal keys (shared prefixes, single-byte tails)
// so probes land on dup-adjacent boundaries.
func stringSearchKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	set := map[string]struct{}{}
	for len(set) < n {
		switch rng.Intn(3) {
		case 0:
			set[fmt.Sprintf("user/%04d", rng.Intn(500))] = struct{}{}
		case 1:
			set[fmt.Sprintf("user/%04d/%c", rng.Intn(500), byte('a'+rng.Intn(4)))] = struct{}{}
		default:
			set[fmt.Sprintf("%c%d", byte('a'+rng.Intn(26)), rng.Intn(1000))] = struct{}{}
		}
	}
	keys := make([]string, 0, n)
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// probesFor derives boundary-stressing probes from the key set: exact
// hits, immediate neighbors (appended NUL, truncated tail, appended high
// byte), and keys outside both ends.
func probesFor(keys []string, rng *rand.Rand, n int) []string {
	probes := make([]string, 0, 4*n+4)
	for i := 0; i < n; i++ {
		k := keys[rng.Intn(len(keys))]
		probes = append(probes, k, k+"\x00", k+"\xff", k[:len(k)-1])
	}
	probes = append(probes, "", "\x00", keys[len(keys)-1]+"z", "\xff\xff")
	return probes
}

// TestStringBinaryDifferential checks Binary against
// sort.SearchStrings over full and restricted windows, including empty
// and out-of-range windows.
func TestStringBinaryDifferential(t *testing.T) {
	keys := stringSearchKeys(2000, 1)
	rng := rand.New(rand.NewSource(2))
	for _, p := range probesFor(keys, rng, 500) {
		want := sort.SearchStrings(keys, p)
		if got := Binary(keys, p, 0, len(keys)); got != want {
			t.Fatalf("Binary(%q)=%d, want %d", p, got, want)
		}
		// Restricted window containing the answer.
		lo := rng.Intn(want + 1)
		hi := want + rng.Intn(len(keys)-want+1)
		if got := Binary(keys, p, lo, hi); got != want {
			t.Fatalf("Binary(%q, [%d,%d))=%d, want %d", p, lo, hi, got, want)
		}
		// Empty window: returns lo unchanged.
		at := rng.Intn(len(keys) + 1)
		if got := Binary(keys, p, at, at); got != at {
			t.Fatalf("Binary(%q, empty@%d)=%d", p, at, got)
		}
		// Window strictly left / right of the answer clamps to its edge.
		if want > 1 {
			if got := Binary(keys, p, 0, want-1); got != want-1 {
				t.Fatalf("Binary(%q, left-of-answer)=%d, want %d", p, got, want-1)
			}
		}
		if want < len(keys)-1 {
			if got := Binary(keys, p, want+1, len(keys)); got != want+1 {
				t.Fatalf("Binary(%q, right-of-answer)=%d, want %d", p, got, want+1)
			}
		}
	}
}

// TestStringModelBiasedBinaryDifferential drives the biased variant with
// predictions from exact to wildly wrong (including out-of-window): the
// answer must match sort.SearchStrings regardless of the hint.
func TestStringModelBiasedBinaryDifferential(t *testing.T) {
	keys := stringSearchKeys(1500, 3)
	rng := rand.New(rand.NewSource(4))
	for _, p := range probesFor(keys, rng, 300) {
		want := sort.SearchStrings(keys, p)
		for _, pred := range []int{want, want - 1, want + 1, 0, len(keys) - 1, -10, len(keys) + 10, rng.Intn(len(keys))} {
			if got := ModelBiasedBinary(keys, p, 0, len(keys), pred); got != want {
				t.Fatalf("ModelBiasedBinary(%q, pred=%d)=%d, want %d", p, pred, got, want)
			}
		}
		if got := ModelBiasedBinary(keys, p, 7, 7, 7); got != 7 {
			t.Fatalf("empty window: got %d, want 7", got)
		}
	}
}

// TestStringBiasedQuaternaryDifferential covers the quaternary probe
// pattern across prediction errors and sigma values, plus degenerate
// windows.
func TestStringBiasedQuaternaryDifferential(t *testing.T) {
	keys := stringSearchKeys(1500, 5)
	rng := rand.New(rand.NewSource(6))
	for _, p := range probesFor(keys, rng, 300) {
		want := sort.SearchStrings(keys, p)
		for _, sigma := range []int{0, 1, 4, 64, len(keys)} {
			for _, pred := range []int{want, want - sigma, want + sigma, -5, len(keys) + 5, rng.Intn(len(keys))} {
				if got := BiasedQuaternary(keys, p, 0, len(keys), pred, sigma); got != want {
					t.Fatalf("BiasedQuaternary(%q, pred=%d, sigma=%d)=%d, want %d", p, pred, sigma, got, want)
				}
			}
		}
		if got := BiasedQuaternary(keys, p, 3, 3, 3, 1); got != 3 {
			t.Fatalf("empty window: got %d, want 3", got)
		}
	}
}

// TestStringBranchlessWithExpansionDifferential starts from windows that do
// NOT contain the answer — the expansion loop must still converge to the
// global lower bound — including empty and fully out-of-range windows.
func TestStringBranchlessWithExpansionDifferential(t *testing.T) {
	keys := stringSearchKeys(1200, 7)
	rng := rand.New(rand.NewSource(8))
	for _, p := range probesFor(keys, rng, 300) {
		want := sort.SearchStrings(keys, p)
		windows := [][2]int{
			{0, len(keys)},
			{want, want}, // empty at the answer
			{0, 1},
			{len(keys) - 1, len(keys)},
			{max(0, want-2), max(0, want-1)},           // strictly left
			{min(len(keys), want+1), len(keys)},        // strictly right
			{rng.Intn(len(keys)), rng.Intn(len(keys))}, // arbitrary (maybe inverted)
			{-5, len(keys) + 5},                        // out-of-range bounds clamp
		}
		for _, w := range windows {
			if got := BranchlessWithExpansion(keys, p, w[0], w[1]); got != want {
				t.Fatalf("BranchlessWithExpansion(%q, [%d,%d))=%d, want %d", p, w[0], w[1], got, want)
			}
		}
	}
}

// TestStringSearchEmptyAndSingle pins the degenerate arrays.
func TestStringSearchEmptyAndSingle(t *testing.T) {
	if got := Binary([]string(nil), "x", 0, 0); got != 0 {
		t.Fatalf("empty array: got %d", got)
	}
	if got := BranchlessWithExpansion([]string(nil), "x", 0, 0); got != 0 {
		t.Fatalf("empty array expansion: got %d", got)
	}
	one := []string{"m"}
	for _, p := range []string{"a", "m", "z"} {
		want := sort.SearchStrings(one, p)
		if got := Binary(one, p, 0, 1); got != want {
			t.Fatalf("single %q: got %d, want %d", p, got, want)
		}
		if got := BranchlessWithExpansion(one, p, 0, 1); got != want {
			t.Fatalf("single expansion %q: got %d, want %d", p, got, want)
		}
		if got := BiasedQuaternary(one, p, 0, 1, 0, 1); got != want {
			t.Fatalf("single quaternary %q: got %d, want %d", p, got, want)
		}
	}
}
