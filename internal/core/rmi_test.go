package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"learnedindex/internal/data"
)

func oracle(keys []uint64, k uint64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
}

// allDatasets returns the three §3.7.1 integer distributions at test scale.
func allDatasets(n int) map[string]data.Keys {
	return map[string]data.Keys{
		"maps":      data.Maps(n, 1),
		"weblogs":   data.Weblogs(n, 1),
		"lognormal": data.LognormalPaper(n, 1),
	}
}

func probesFor(keys data.Keys) []uint64 {
	probes := append(data.SampleExisting(keys, 3000, 2), data.SampleMissing(keys, 1000, 3)...)
	return append(probes, 0, keys[0], keys[0]-1, keys[len(keys)-1], keys[len(keys)-1]+1, ^uint64(0))
}

func TestRMILookupMatchesOracleAllDatasets(t *testing.T) {
	for name, keys := range allDatasets(30_000) {
		for _, leaves := range []int{16, 100, 1000} {
			r := New(keys, DefaultConfig(leaves))
			for _, p := range probesFor(keys) {
				want := oracle(keys, p)
				if got := r.Lookup(p); got != want {
					t.Fatalf("%s leaves=%d: Lookup(%d) = %d, want %d", name, leaves, p, got, want)
				}
			}
		}
	}
}

// TestTopNNWiderThan32 trains an NN top wider than the network's stack
// scratch: training routes every key through it and each lookup runs it.
func TestTopNNWiderThan32(t *testing.T) {
	keys := data.LognormalPaper(5_000, 1)
	r := New(keys, Config{Top: TopNN, Hidden: []int{64}, StageSizes: []int{100}})
	for _, p := range probesFor(keys) {
		if got, want := r.Lookup(p), oracle(keys, p); got != want {
			t.Fatalf("Lookup(%d) = %d, want %d", p, got, want)
		}
	}
}

// TestRMIAllSearchStrategies checks the uint64 RMI's one last-mile
// search: whatever the Config, the plan runs its branchless bisection
// (reported as SearchBinary), and Lookup and Contains resolve the lower
// bound through it for stored, missing and boundary probes.
func TestRMIAllSearchStrategies(t *testing.T) {
	keys := data.Lognormal(30_000, 0, 2, 1_000_000_000, 1)
	for name, cfg := range map[string]Config{"default": DefaultConfig(200), "zero": {}} {
		r := New(keys, cfg)
		if got := r.Plan().SearchKind(); got != SearchBinary {
			t.Fatalf("%s: plan search = %v, want %v", name, got, SearchBinary)
		}
		for _, p := range probesFor(keys) {
			want := oracle(keys, p)
			if got := r.Lookup(p); got != want {
				t.Fatalf("%s: Lookup(%d) = %d, want %d", name, p, got, want)
			}
			if got, want := r.Contains(p), want < len(keys) && keys[want] == p; got != want {
				t.Fatalf("%s: Contains(%d) = %v, want %v", name, p, got, want)
			}
		}
	}
}

func TestRMIAllTopModels(t *testing.T) {
	keys := data.Weblogs(20_000, 1)
	for _, top := range []struct {
		kind   TopKind
		hidden []int
	}{
		{TopLinear, nil},
		{TopMultivariate, nil},
		{TopNN, nil},
		{TopNN, []int{8}},
		{TopNN, []int{16, 16}},
	} {
		cfg := DefaultConfig(200)
		cfg.Top = top.kind
		cfg.Hidden = top.hidden
		r := New(keys, cfg)
		for _, p := range probesFor(keys) {
			want := oracle(keys, p)
			if got := r.Lookup(p); got != want {
				t.Fatalf("top=%v hidden=%v: Lookup(%d) = %d, want %d", top.kind, top.hidden, p, got, want)
			}
		}
	}
}

func TestRMIThreeStages(t *testing.T) {
	keys := data.Lognormal(30_000, 0, 2, 1_000_000_000, 1)
	cfg := DefaultConfig(0)
	cfg.StageSizes = []int{10, 100, 1000}
	r := New(keys, cfg)
	for _, p := range probesFor(keys) {
		want := oracle(keys, p)
		if got := r.Lookup(p); got != want {
			t.Fatalf("3-stage Lookup(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestRMIDensePerfectModel(t *testing.T) {
	// §1's motivating example: continuous integer keys. A linear model is
	// exact, so the error bound must collapse to (near) zero.
	keys := data.Dense(100_000, 1_000_000, 1)
	r := New(keys, DefaultConfig(100))
	if r.MaxAbsErr() > 1 {
		t.Fatalf("dense keys: max error %d, want <= 1", r.MaxAbsErr())
	}
	for _, p := range data.SampleExisting(keys, 1000, 2) {
		if got, want := r.Lookup(p), oracle(keys, p); got != want {
			t.Fatalf("dense Lookup(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestRMIMoreLeavesSmallerError(t *testing.T) {
	keys := data.Weblogs(50_000, 1)
	small := New(keys, DefaultConfig(10))
	big := New(keys, DefaultConfig(2000))
	if big.MeanAbsErr() >= small.MeanAbsErr() {
		t.Fatalf("more leaves should shrink error: %f vs %f", big.MeanAbsErr(), small.MeanAbsErr())
	}
}

func TestRMIContainsAndRange(t *testing.T) {
	keys := data.Lognormal(20_000, 0, 2, 1_000_000_000, 1)
	r := New(keys, DefaultConfig(100))
	for _, k := range keys[:200] {
		if !r.Contains(k) {
			t.Fatalf("missing stored key %d", k)
		}
	}
	for _, k := range data.SampleMissing(keys, 200, 4) {
		if r.Contains(k) {
			t.Fatalf("phantom key %d", k)
		}
	}
	lo, hi := keys[5000], keys[6000]
	s, e := r.RangeScan(lo, hi)
	if s != 5000 || e != 6000 {
		t.Fatalf("RangeScan = [%d,%d), want [5000,6000)", s, e)
	}
}

func TestRMIErrorBoundsHoldForStoredKeys(t *testing.T) {
	// The min/max error guarantee of §2: every stored key's true position
	// lies inside the predicted window.
	keys := data.Weblogs(30_000, 1)
	r := New(keys, DefaultConfig(300))
	for i, k := range keys {
		_, lo, hi := r.Predict(k)
		if i < lo || i >= hi {
			t.Fatalf("key %d at pos %d outside window [%d,%d)", k, i, lo, hi)
		}
	}
}

func TestRMIEmptyAndTiny(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(16), {}} {
		r := New(nil, cfg)
		if r.Lookup(5) != 0 || r.Contains(5) {
			t.Fatalf("empty lookup under %+v", cfg)
		}
		if pos, lo, hi := r.Predict(5); pos != 0 || lo != 0 || hi != 0 {
			t.Fatalf("empty Predict under %+v = (%d, %d, %d), want (0, 0, 0)", cfg, pos, lo, hi)
		}
	}
	r := New([]uint64{9}, DefaultConfig(4))
	if r.Lookup(3) != 0 || r.Lookup(9) != 0 || r.Lookup(100) != 1 {
		t.Fatal("single-key lookups wrong")
	}
	r = New([]uint64{3, 7}, DefaultConfig(4))
	for _, p := range []uint64{0, 3, 5, 7, 8} {
		if got, want := r.Lookup(p), oracle([]uint64{3, 7}, p); got != want {
			t.Fatalf("two-key Lookup(%d)=%d want %d", p, got, want)
		}
	}
}

func TestRMISizeScalesWithLeaves(t *testing.T) {
	keys := data.Lognormal(50_000, 0, 2, 1_000_000_000, 1)
	s100 := New(keys, DefaultConfig(100)).SizeBytes()
	s1000 := New(keys, DefaultConfig(1000)).SizeBytes()
	ratio := float64(s1000) / float64(s100)
	if ratio < 5 || ratio > 12 {
		t.Fatalf("size should scale ~linearly with leaves: ratio %.1f", ratio)
	}
}

func TestRMIQuickNonexistentKeys(t *testing.T) {
	keys := data.Lognormal(10_000, 0, 2, 1_000_000_000, 5)
	r := New(keys, DefaultConfig(64))
	f := func(p uint64) bool {
		return r.Lookup(p) == oracle(keys, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRMIQuickRandomKeySets(t *testing.T) {
	f := func(raw []uint64, probe uint64, leavesRaw uint8) bool {
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		keys := raw[:0]
		var prev uint64
		for i, k := range raw {
			if i == 0 || k != prev {
				keys = append(keys, k)
				prev = k
			}
		}
		r := New(keys, DefaultConfig(int(leavesRaw)%32+1))
		return r.Lookup(probe) == oracle(keys, probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRunsLowerBound(t *testing.T) {
	// The RMI is documented for unique keys, but lower-bound semantics on
	// runs must still point at the first duplicate.
	keys := []uint64{1, 5, 5, 5, 9, 9, 12, 20, 20, 31}
	r := New(keys, DefaultConfig(4))
	for _, p := range []uint64{0, 1, 5, 6, 9, 12, 20, 31, 40} {
		if got, want := r.Lookup(p), oracle(keys, p); got != want {
			t.Fatalf("dup Lookup(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestPredictWindowShrinksWithLeaves(t *testing.T) {
	keys := data.Lognormal(50_000, 0, 2, 1_000_000_000, 1)
	avgWin := func(leaves int) float64 {
		r := New(keys, DefaultConfig(leaves))
		total := 0
		probes := data.SampleExisting(keys, 2000, 7)
		for _, p := range probes {
			_, lo, hi := r.Predict(p)
			total += hi - lo
		}
		return float64(total) / float64(len(probes))
	}
	if avgWin(2000) >= avgWin(20) {
		t.Fatal("error window should shrink with more leaves")
	}
}

func TestRMIDeterministic(t *testing.T) {
	keys := data.Weblogs(10_000, 1)
	cfg := DefaultConfig(64)
	cfg.Top = TopNN
	cfg.Hidden = []int{8}
	a, b := New(keys, cfg), New(keys, cfg)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		p := keys[rng.Intn(len(keys))] + uint64(rng.Intn(3)) - 1
		if a.Lookup(p) != b.Lookup(p) {
			t.Fatal("same config+seed must give identical indexes")
		}
	}
}
