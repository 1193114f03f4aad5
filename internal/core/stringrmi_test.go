package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"learnedindex/internal/data"
)

func stringOracle(keys []string, k string) int {
	return sort.SearchStrings(keys, k)
}

func stringProbes(keys data.StringKeys) []string {
	probes := data.SampleExistingStrings(keys, 2000, 2)
	// Mutations that are unlikely to be stored.
	for _, k := range keys[:200] {
		probes = append(probes, k+"z", k[:len(k)-1])
	}
	return append(probes, "", "zzzzzzzzzzzzzz", keys[0], keys[len(keys)-1])
}

func TestStringRMILookupMatchesOracle(t *testing.T) {
	keys := data.DocIDs(20_000, 1)
	for _, hidden := range [][]int{nil, {16}, {16, 16}} {
		cfg := DefaultStringConfig(200, hidden...)
		r := NewString(keys, cfg)
		for _, p := range stringProbes(keys) {
			want := stringOracle(keys, p)
			if got := r.Lookup(p); got != want {
				t.Fatalf("hidden=%v: Lookup(%q) = %d, want %d", hidden, p, got, want)
			}
		}
	}
}

func TestStringRMISearchStrategies(t *testing.T) {
	keys := data.DocIDs(15_000, 1)
	for _, s := range []SearchKind{SearchModelBiased, SearchBinary, SearchQuaternary, SearchExponential} {
		cfg := DefaultStringConfig(150, 16)
		cfg.Search = s
		r := NewString(keys, cfg)
		for _, p := range stringProbes(keys) {
			want := stringOracle(keys, p)
			if got := r.Lookup(p); got != want {
				t.Fatalf("search=%v: Lookup(%q) = %d, want %d", s, p, got, want)
			}
		}
	}
}

func TestStringRMIHybrid(t *testing.T) {
	keys := data.DocIDs(15_000, 1)
	cfg := DefaultStringConfig(100, 16)
	cfg.HybridThreshold = 16
	r := NewString(keys, cfg)
	if r.NumHybrid() == 0 {
		t.Skip("no leaf exceeded the threshold on this seed; nothing to verify")
	}
	for _, p := range stringProbes(keys) {
		want := stringOracle(keys, p)
		if got := r.Lookup(p); got != want {
			t.Fatalf("hybrid string Lookup(%q) = %d, want %d", p, got, want)
		}
	}
}

func TestStringRMIContains(t *testing.T) {
	keys := data.DocIDs(10_000, 1)
	r := NewString(keys, DefaultStringConfig(100))
	for _, k := range keys[:300] {
		if !r.Contains(k) {
			t.Fatalf("missing %q", k)
		}
		if r.Contains(k + "x") {
			t.Fatalf("phantom %q", k+"x")
		}
	}
}

func TestStringRMIErrorWindowHolds(t *testing.T) {
	keys := data.DocIDs(10_000, 1)
	r := NewString(keys, DefaultStringConfig(100, 16))
	for i, k := range keys {
		_, lo, hi := r.Predict(k)
		if i < lo || i >= hi {
			t.Fatalf("key %q at %d outside window [%d,%d)", k, i, lo, hi)
		}
	}
}

func TestStringRMIEmptyAndTiny(t *testing.T) {
	r := NewString(nil, DefaultStringConfig(4))
	if r.Lookup("x") != 0 {
		t.Fatal("empty lookup")
	}
	if pos, lo, hi := r.Predict("x"); pos != 0 || lo != 0 || hi != 0 {
		t.Fatalf("empty Predict = (%d, %d, %d), want (0, 0, 0)", pos, lo, hi)
	}
	r = NewString([]string{"m"}, DefaultStringConfig(4))
	if r.Lookup("a") != 0 || r.Lookup("m") != 0 || r.Lookup("z") != 1 {
		t.Fatal("single-key string lookups wrong")
	}
}

func TestVectorize(t *testing.T) {
	dst := make([]float64, 6)
	Vectorize("AB", dst)
	want := []float64{65, 66, 0, 0, 0, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Vectorize = %v", dst)
		}
	}
}

func TestStringRMISizeSmallerThanBTreeSeparators(t *testing.T) {
	// The Figure 6 size story: the learned index (10k leaves on 10M keys)
	// is smaller than a page-32 string B-Tree's separators.
	keys := data.DocIDs(30_000, 1)
	r := NewString(keys, DefaultStringConfig(len(keys)/100, 16))
	// 30k keys / page 32 ≈ 940 separators × 30 bytes ≈ 28KB vs RMI ~8.4KB+NN
	if r.SizeBytes() <= 0 {
		t.Fatal("size must be positive")
	}
	t.Logf("string RMI size: %d bytes, max err %d, mean err %.1f",
		r.SizeBytes(), r.MaxAbsErr(), r.MeanAbsErr())
}

// figure6Golden pins the models Figure 6's six training shapes fit on 100k
// DocIDs with 100 leaves: a SHA-256 over every leaf's model, error window,
// standard error, key count and B-Tree positions, then the index-wide error
// stats, hybrid count and size. 100k keys is enough for TrainingWorkers to
// route and fit on more than one goroutine where GOMAXPROCS allows.
var figure6Golden = map[string]string{
	"hidden=[16] t=0":      "7177056dcccba1751b1cc38ccbe1c8c6809a5852578e8e88dec2f3290e2cccca",
	"hidden=[16] t=128":    "91262ef0bf8ff8f6731f589702698e620740175c1efaf10a0ed6d176466bf407",
	"hidden=[16] t=64":     "dce575ff4b88d9028047495ea0ce14f0c55609f04c46eb1f2c16b74c95d039be",
	"hidden=[16 16] t=0":   "bb2b08910bbd68953d3f8098fe60b014c574c1ac49ba583f32bdad03f485510d",
	"hidden=[16 16] t=128": "a8b13b5799d3d7ca5ee77ff7bb8eac92412bea815926b25d35847518d427e849",
	"hidden=[16 16] t=64":  "6ee48e33d9a41e0e35041381255a10a4e666ab0099639ee16e824ecf5fcfdb98",
}

func TestFigure6ModelsPinned(t *testing.T) {
	keys := data.DocIDs(100_000, 1)
	for _, hidden := range [][]int{{16}, {16, 16}} {
		for _, thresh := range []int{0, 128, 64} {
			cfg := DefaultStringConfig(100, hidden...)
			cfg.HybridThreshold = thresh
			r := NewString(keys, cfg)
			h := sha256.New()
			put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
			for j := range r.leaves {
				lf := &r.leaves[j]
				put(math.Float64bits(lf.m.a))
				put(math.Float64bits(lf.m.b))
				put(uint64(lf.minErr))
				put(uint64(lf.maxErr))
				put(uint64(math.Float32bits(lf.stdErr)))
				put(uint64(lf.n))
				var pos []int32
				if r.btPos != nil {
					pos = r.btPos[j]
				}
				put(uint64(len(pos)))
				for _, p := range pos {
					put(uint64(p))
				}
			}
			put(uint64(r.MaxAbsErr()))
			put(math.Float64bits(r.MeanAbsErr()))
			put(uint64(r.NumHybrid()))
			put(uint64(r.SizeBytes()))
			name := fmt.Sprintf("hidden=%v t=%d", hidden, thresh)
			if got := hex.EncodeToString(h.Sum(nil)); got != figure6Golden[name] {
				t.Errorf("%s: models drifted:\n got %s\nwant %s (hybrid %d, max err %d, mean err %v)",
					name, got, figure6Golden[name], r.NumHybrid(), r.MaxAbsErr(), r.MeanAbsErr())
			}
		}
	}
}
