package hashmap

import (
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
)

func TestLearnedHashRange(t *testing.T) {
	keys := data.Lognormal(20_000, 0, 2, 1_000_000_000, 1)
	h := NewLearnedHash(keys, len(keys), 200)
	for _, k := range keys {
		s := h.Hash(k)
		if s < 0 || s >= h.Slots() {
			t.Fatalf("hash out of range: %d", s)
		}
	}
	// Arbitrary (non-stored) keys must also stay in range.
	for _, k := range data.SampleMissing(keys, 2000, 2) {
		s := h.Hash(k)
		if s < 0 || s >= h.Slots() {
			t.Fatalf("hash out of range for missing key: %d", s)
		}
	}
}

// allDatasets returns the three §3.7.1 integer distributions at test scale.
func allDatasets(n int) map[string]data.Keys {
	return map[string]data.Keys{
		"maps":      data.Maps(n, 1),
		"weblogs":   data.Weblogs(n, 1),
		"lognormal": data.LognormalPaper(n, 1),
	}
}

func TestLearnedHashReducesConflictsOnAllDatasets(t *testing.T) {
	// The Figure 8 claim: the learned hash reduces conflicts on every
	// dataset, most on Maps, least on Lognormal/Weblogs.
	for name, keys := range allDatasets(50_000) {
		slots := len(keys)
		lh := NewLearnedHash(keys, slots, len(keys)/50)
		learned := MeasureConflicts(keys, slots, lh.Hash)
		random := MeasureConflicts(keys, slots, RandomHashFunc(slots))
		if learned.ConflictRate() >= random.ConflictRate() {
			t.Fatalf("%s: learned hash (%.3f) did not beat random (%.3f)",
				name, learned.ConflictRate(), random.ConflictRate())
		}
		t.Logf("%s: random %.1f%% learned %.1f%% reduction %.1f%%",
			name, random.ConflictRate()*100, learned.ConflictRate()*100,
			(1-learned.ConflictRate()/random.ConflictRate())*100)
	}
}

func TestRandomHashConflictsNearBirthdayParadox(t *testing.T) {
	// With slots == keys, a random hash leaves ~1/e of slots empty and
	// conflicts ~36.8% of keys (§4's "birthday paradox" arithmetic).
	keys := data.Uniform(100_000, 1<<50, 1)
	st := MeasureConflicts(keys, len(keys), RandomHashFunc(len(keys)))
	if r := st.ConflictRate(); r < 0.34 || r > 0.40 {
		t.Fatalf("random conflict rate %.3f, want ~0.368", r)
	}
	if e := float64(st.Empty) / float64(st.Slots); e < 0.34 || e > 0.40 {
		t.Fatalf("empty fraction %.3f, want ~0.368", e)
	}
}

func TestLearnedHashPerfectOnDense(t *testing.T) {
	// Dense keys: CDF is exact, so a learned hash into n slots is
	// conflict-free — the §4 motivating case.
	keys := data.Dense(50_000, 1_000_000, 1)
	lh := NewLearnedHash(keys, len(keys), 100)
	st := MeasureConflicts(keys, len(keys), lh.Hash)
	if st.ConflictRate() > 0.001 {
		t.Fatalf("dense learned hash conflict rate %.4f, want ~0", st.ConflictRate())
	}
}

func TestConflictStatsAccounting(t *testing.T) {
	keys := data.Uniform(10_000, 1<<40, 1)
	st := MeasureConflicts(keys, len(keys), RandomHashFunc(len(keys)))
	if st.Occupied+st.Empty != st.Slots {
		t.Fatal("occupied + empty != slots")
	}
	if st.Conflicts != st.Keys-st.Occupied {
		t.Fatal("conflicts != keys - occupied")
	}
	if st.MaxChain < 2 {
		t.Fatal("expected at least one 2-chain at 100% load")
	}
}

func TestLearnedHashWithChainedMap(t *testing.T) {
	// End-to-end: the learned hash must plug into the Appendix B map and
	// waste fewer slots than random hashing.
	keys := data.Maps(30_000, 1)
	lh := NewLearnedHash(keys, len(keys), 3000)

	build := func(h HashFunc) *Chained {
		m := NewChained(len(keys), h)
		for i, k := range keys {
			m.Insert(Record{Key: k, Payload: k, Meta: uint32(i)})
		}
		return m
	}
	learned := build(lh.Hash)
	random := build(HashFunc(RandomHashFunc(len(keys))))
	for _, k := range keys[:1000] {
		if _, ok := learned.Lookup(k); !ok {
			t.Fatalf("learned-hash map lost key %d", k)
		}
	}
	if learned.EmptySlots() >= random.EmptySlots() {
		t.Fatalf("learned map wasted more slots: %d vs %d", learned.EmptySlots(), random.EmptySlots())
	}
}

func TestNewLearnedHashFromRMI(t *testing.T) {
	keys := data.Lognormal(10_000, 0, 2, 1_000_000_000, 1)
	r := core.New(keys, core.DefaultConfig(100))
	h := NewLearnedHashFromRMI(r, 5000)
	if h.Slots() != 5000 {
		t.Fatal("slots not set")
	}
	for _, k := range keys[:500] {
		if s := h.Hash(k); s < 0 || s >= 5000 {
			t.Fatalf("out of range %d", s)
		}
	}
	if h.SizeBytes() != r.SizeBytes() {
		t.Fatal("size should delegate to the RMI")
	}
}
