package core

import (
	"math/rand"
	"slices"
	"testing"

	"learnedindex/internal/data"
)

// assertPlanEquivalent checks that the compiled plan answers the true
// lower bound (sort.Search, oracle) on every probe, through every entry
// point: per key, batched in probe order and batched ascending.
func assertPlanEquivalent(t *testing.T, name string, r *RMI, probes []uint64) {
	t.Helper()
	p := r.Plan()
	if p == nil {
		t.Fatalf("%s: nil plan", name)
	}
	keys := r.Keys()
	want := make([]int, len(probes))
	for i, k := range probes {
		want[i] = oracle(keys, k)
		if got := p.Lookup(k); got != want[i] {
			t.Fatalf("%s: Plan.Lookup(%d) = %d, lower bound %d", name, k, got, want[i])
		}
		if got := r.Lookup(k); got != want[i] {
			t.Fatalf("%s: RMI.Lookup(%d) = %d, lower bound %d", name, k, got, want[i])
		}
		stored := want[i] < len(keys) && keys[want[i]] == k
		if got := p.Contains(k); got != stored {
			t.Fatalf("%s: Plan.Contains(%d) = %v, want %v", name, k, got, stored)
		}
		if got := r.Contains(k); got != stored {
			t.Fatalf("%s: RMI.Contains(%d) = %v, want %v", name, k, got, stored)
		}
	}
	// Batched, unsorted probe order.
	got := make([]int, len(probes))
	p.LookupBatch(probes, got)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: Plan.LookupBatch[%d] (key %d) = %d, want %d", name, i, probes[i], got[i], want[i])
		}
	}
	gotB := make([]bool, len(probes))
	p.ContainsBatch(probes, gotB)
	for i := range gotB {
		if exp := want[i] < len(keys) && keys[want[i]] == probes[i]; gotB[i] != exp {
			t.Fatalf("%s: Plan.ContainsBatch[%d] (key %d) = %v, want %v", name, i, probes[i], gotB[i], exp)
		}
	}
	// Batched, ascending probe order.
	sorted := slices.Clone(probes)
	slices.Sort(sorted)
	gotSorted := make([]int, len(sorted))
	p.LookupBatch(sorted, gotSorted)
	for i := range gotSorted {
		if exp := oracle(keys, sorted[i]); gotSorted[i] != exp {
			t.Fatalf("%s: ascending Plan.LookupBatch[%d] (key %d) = %d, want %d", name, i, sorted[i], gotSorted[i], exp)
		}
	}
}

// TestPlanEquivalenceOracle is the compiled-read-path contract: for every
// dataset in the test corpus and every TopKind, Plan.Lookup and the batch
// executors return the sort.Search lower bound.
func TestPlanEquivalenceOracle(t *testing.T) {
	tops := []struct {
		name   string
		kind   TopKind
		hidden []int
	}{
		{"linear", TopLinear, nil},
		{"multivariate", TopMultivariate, nil},
		{"nn8", TopNN, []int{8}},
	}
	for dsName, keys := range allDatasets(20_000) {
		probes := probesFor(keys)
		for _, top := range tops {
			cfg := DefaultConfig(150)
			cfg.Top = top.kind
			cfg.Hidden = top.hidden
			r := New(keys, cfg)
			assertPlanEquivalent(t, dsName+"/"+top.name, r, probes)
		}
	}
}

func TestPlanEquivalenceMultiStage(t *testing.T) {
	keys := data.Lognormal(25_000, 0, 2, 1_000_000_000, 1)
	cfg := DefaultConfig(0)
	cfg.StageSizes = []int{8, 80, 800}
	r := New(keys, cfg)
	assertPlanEquivalent(t, "3-stage", r, probesFor(keys))
}

func TestPlanEquivalenceDecoded(t *testing.T) {
	// A deserialized index must carry a working compiled plan (the
	// "fast on first read" contract of the storage engine).
	keys := data.LognormalPaper(15_000, 3)
	cfg := Config{Top: TopMultivariate, StageSizes: []int{120}, Seed: 1}
	r := New(keys, cfg)
	enc, err := r.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRMI(enc, keys)
	if err != nil {
		t.Fatal(err)
	}
	assertPlanEquivalent(t, "decoded", dec, probesFor(keys))
}

func TestPlanEmptyAndTiny(t *testing.T) {
	empty := New(nil, DefaultConfig(4))
	p := empty.Plan()
	if p.Lookup(7) != 0 || p.Contains(7) {
		t.Fatal("empty plan lookup")
	}
	out := make([]int, 3)
	p.LookupBatch([]uint64{1, 2, 3}, out)
	for _, v := range out {
		if v != 0 {
			t.Fatal("empty plan batch")
		}
	}
	outB := make([]bool, 3)
	p.ContainsBatch([]uint64{1, 2, 3}, outB)
	for _, v := range outB {
		if v {
			t.Fatal("empty plan contains-batch")
		}
	}
	for _, ks := range [][]uint64{{9}, {3, 7}, {1, 2, 3, 4, 5}} {
		r := New(append([]uint64(nil), ks...), DefaultConfig(4))
		probes := []uint64{0, 1, 3, 5, 7, 9, 10, ^uint64(0)}
		assertPlanEquivalent(t, "tiny", r, probes)
	}
}

// TestPlanQuickRandom: random probes, most of them far outside the key
// domain, batched over a non-multiple of the tile, answer the oracle.
func TestPlanQuickRandom(t *testing.T) {
	keys := data.Lognormal(10_000, 0, 2, 1_000_000_000, 5)
	r := New(keys, DefaultConfig(64))
	p := r.Plan()
	rng := rand.New(rand.NewSource(77))
	batch := make([]uint64, 257) // non-multiple of the group size
	for i := range batch {
		batch[i] = rng.Uint64()
	}
	out := make([]int, len(batch))
	p.LookupBatch(batch, out)
	for i, k := range batch {
		if want := oracle(keys, k); out[i] != want {
			t.Fatalf("random batch: Plan[%d](%d) = %d, want %d", i, k, out[i], want)
		}
	}
}

// TestPlanRangeScan pins the scan-entry API: Plan.RangeScan and
// RMI.RangeScan answer the sort.Search lower bounds on random ranges,
// including empty, inverted, and out-of-domain ones.
func TestPlanRangeScan(t *testing.T) {
	keys := data.Lognormal(20_000, 0, 2, 1_000_000_000, 9)
	r := New(keys, DefaultConfig(128))
	p := r.Plan()
	rng := rand.New(rand.NewSource(11))
	check := func(lo, hi uint64) {
		ws, we := oracle(keys, lo), oracle(keys, hi)
		if s, e := p.RangeScan(lo, hi); s != ws || e != we {
			t.Fatalf("Plan.RangeScan(%d,%d) = [%d,%d), want [%d,%d)", lo, hi, s, e, ws, we)
		}
		if s, e := r.RangeScan(lo, hi); s != ws || e != we {
			t.Fatalf("RMI.RangeScan(%d,%d) = [%d,%d), want [%d,%d)", lo, hi, s, e, ws, we)
		}
	}
	check(0, ^uint64(0))
	check(keys[0], keys[0])
	check(keys[100], keys[50]) // inverted: positions still exact
	for i := 0; i < 500; i++ {
		lo := rng.Uint64() % (keys[len(keys)-1] + 1000)
		check(lo, lo+rng.Uint64()%1_000_000)
	}
}
