package core

import (
	"sort"
	"testing"

	"learnedindex/internal/data"
)

func TestGridSearchRanksAndTrains(t *testing.T) {
	keys := data.Lognormal(20_000, 0, 2, 1_000_000_000, 1)
	probes := data.SampleExisting(keys, 2000, 2)
	cands := []Candidate{
		{Config: DefaultConfig(20), Label: "leaves=20"},
		{Config: DefaultConfig(400), Label: "leaves=400"},
	}
	res := GridSearch(keys, probes, cands, MinimizeLatency)
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if !sort.SliceIsSorted(res, func(i, j int) bool { return res[i].Score < res[j].Score }) {
		t.Fatal("results not sorted by score")
	}
	for _, r := range res {
		for _, p := range probes[:100] {
			if got, want := r.RMI.Lookup(p), oracle(keys, p); got != want {
				t.Fatalf("%s: wrong lookup", r.Candidate.Label)
			}
		}
	}
}

func TestGridObjectives(t *testing.T) {
	if MinimizeLatency(100, 1<<30, 5) != 100 {
		t.Fatal("MinimizeLatency should ignore size")
	}
	under := LatencyUnderBudget(1000)
	if under(100, 500, 0) != 100 {
		t.Fatal("within budget should score latency")
	}
	if under(100, 5000, 0) <= under(100, 500, 0) {
		t.Fatal("over budget must be penalized")
	}
	if SpaceTimeProduct(10, 10, 0) != 100 {
		t.Fatal("product objective wrong")
	}
}

func TestDefaultGridShape(t *testing.T) {
	g := DefaultGrid([]int{100, 1000})
	if len(g) != 7*2 {
		t.Fatalf("grid size %d, want 14", len(g))
	}
	for _, c := range g {
		if c.Label == "" || len(c.Config.StageSizes) != 1 {
			t.Fatalf("malformed candidate %+v", c)
		}
	}
}

func TestNaiveIndexCorrect(t *testing.T) {
	keys := data.Lognormal(5000, 0, 2, 1_000_000_000, 1)
	ni := NewNaive(keys, 1)
	probes := append(data.SampleExisting(keys, 300, 2), data.SampleMissing(keys, 100, 3)...)
	for _, p := range probes {
		want := oracle(keys, p)
		if got := ni.Lookup(p); got != want {
			t.Fatalf("naive Lookup(%d) = %d, want %d", p, got, want)
		}
		if got := ni.LookupNative(p); got != want {
			t.Fatalf("naive native Lookup(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestNaiveInterpretedMatchesNative(t *testing.T) {
	keys := data.Lognormal(3000, 0, 2, 1_000_000_000, 1)
	ni := NewNaive(keys, 1)
	for _, k := range keys[:200] {
		if ni.PredictInterpreted(k) != ni.PredictNative(k) {
			t.Fatal("graph interpreter diverges from native execution")
		}
	}
	if ni.GraphNodes() < 8 {
		t.Fatalf("graph too small: %d nodes", ni.GraphNodes())
	}
}

// TestRMILookupBatchSorted checks the amortized batch primitive against
// per-key Lookup on uniform, lognormal, and adversarial (all-equal, empty,
// out-of-range) ascending batches.
func TestRMILookupBatchSorted(t *testing.T) {
	keys := data.LognormalPaper(50_000, 3)
	r := New(keys, DefaultConfig(500))
	maxKey := keys[len(keys)-1]

	batches := map[string][]uint64{
		"empty":     {},
		"all-equal": {keys[777], keys[777], keys[777], keys[777]},
		"below-min": {0, 1, 2},
		"above-max": {maxKey + 1, maxKey + 2, ^uint64(0)},
		"uniform":   data.Uniform(3000, maxKey+10, 5),
		"lognormal": data.SampleExisting(keys, 3000, 6),
		"mixed":     append(data.SampleExisting(keys, 1500, 7), data.SampleMissing(keys, 1500, 8)...),
	}
	for name, batch := range batches {
		sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
		out := make([]int, len(batch))
		r.LookupBatchSorted(batch, out)
		for i, k := range batch {
			if want := r.Lookup(k); out[i] != want {
				t.Fatalf("%s[%d]: batch Lookup(%d) = %d, per-key %d", name, i, k, out[i], want)
			}
		}
	}
}
