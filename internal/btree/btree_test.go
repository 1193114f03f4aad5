package btree

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

func TestLookupMatchesOracleAcrossPageSizes(t *testing.T) {
	keys := data.Lognormal(20_000, 0, 2, 1_000_000_000, 1)
	for _, ps := range []int{2, 3, 32, 64, 100, 128, 512, 4096} {
		tr := New([]uint64(keys), ps)
		probes := append(data.SampleExisting(keys, 2000, 2), data.SampleMissing(keys, 500, 3)...)
		probes = append(probes, 0, keys[0]-1, keys[0], keys[len(keys)-1], keys[len(keys)-1]+1)
		for _, p := range probes {
			want := oracle(keys, p)
			if got := tr.Lookup(p); got != want {
				t.Fatalf("pageSize=%d: Lookup(%d) = %d, want %d", ps, p, got, want)
			}
		}
	}
}

func TestContains(t *testing.T) {
	keys := data.Dense(1000, 10, 10) // 10, 20, ..., 10000
	tr := New([]uint64(keys), 16)
	for _, k := range keys {
		if !tr.Contains(k) {
			t.Fatalf("missing key %d", k)
		}
		if tr.Contains(k + 1) {
			t.Fatalf("phantom key %d", k+1)
		}
	}
}

func TestHeightShrinksWithPageSize(t *testing.T) {
	keys := data.Uniform(100_000, 1<<50, 1)
	h32 := New([]uint64(keys), 32).Height()
	h512 := New([]uint64(keys), 512).Height()
	if h512 >= h32 {
		t.Fatalf("height should shrink with page size: h32=%d h512=%d", h32, h512)
	}
}

func TestSizeHalvesWithDoublePageSize(t *testing.T) {
	// Figure 4's size column: doubling the page size halves the index size.
	keys := data.Uniform(100_000, 1<<50, 1)
	prev := New([]uint64(keys), 32).SizeBytes()
	for _, ps := range []int{64, 128, 256, 512} {
		cur := New([]uint64(keys), ps).SizeBytes()
		ratio := float64(prev) / float64(cur)
		if ratio < 1.8 || ratio > 2.3 {
			t.Fatalf("pageSize %d→%d: size ratio %.2f, want ~2", ps/2, ps, ratio)
		}
		prev = cur
	}
}

func TestEmptyAndTiny(t *testing.T) {
	tr := New([]uint64{}, 16)
	if got := tr.Lookup(5); got != 0 {
		t.Fatalf("empty lookup = %d", got)
	}
	tr = New([]uint64{7}, 16)
	if tr.Lookup(3) != 0 || tr.Lookup(7) != 0 || tr.Lookup(9) != 1 {
		t.Fatal("single-key lookups wrong")
	}
}

func TestStringKeys(t *testing.T) {
	keys := []string(data.DocIDs(5000, 1))
	tr := New(keys, 64)
	probes := data.SampleExistingStrings(data.StringKeys(keys), 1000, 2)
	probes = append(probes, "", "zzzz", keys[0], keys[len(keys)-1])
	for _, p := range probes {
		want := sort.SearchStrings(keys, p)
		if got := tr.Lookup(p); got != want {
			t.Fatalf("string Lookup(%q) = %d, want %d", p, got, want)
		}
	}
}

func TestQuickRandomSets(t *testing.T) {
	f := func(raw []uint64, probe uint64, psRaw uint8) bool {
		sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
		// dedupe
		keys := raw[:0]
		var prev uint64
		for i, k := range raw {
			if i == 0 || k != prev {
				keys = append(keys, k)
				prev = k
			}
		}
		ps := int(psRaw)%64 + 2
		tr := New(keys, ps)
		return tr.Lookup(probe) == oracle(keys, probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNumSeparators(t *testing.T) {
	keys := data.Dense(10_000, 0, 1)
	tr := New([]uint64(keys), 100)
	// level0: 100 separators; level1: 1 — total 101, but level0 (100) fits
	// within fanout (100), so only one level.
	if tr.Height() != 1 {
		t.Fatalf("height = %d, want 1", tr.Height())
	}
	if tr.NumSeparators() != 100 {
		t.Fatalf("separators = %d, want 100", tr.NumSeparators())
	}
}

func TestFixedSizeBudgetRespected(t *testing.T) {
	keys := data.Lognormal(100_000, 0, 2, 1_000_000_000, 1)
	for _, budget := range []int{1 << 12, 1 << 16, 1 << 20} {
		tr := NewFixedSize(keys, budget)
		if tr.SizeBytes() > budget {
			t.Fatalf("budget %d exceeded: %d", budget, tr.SizeBytes())
		}
	}
}

func TestFixedSizeLookupMatchesOracle(t *testing.T) {
	keys := data.Lognormal(30_000, 0, 2, 1_000_000_000, 1)
	tr := NewFixedSize(keys, 1<<14)
	probes := append(data.SampleExisting(keys, 2000, 2), data.SampleMissing(keys, 500, 3)...)
	probes = append(probes, 0, keys[len(keys)-1]+1)
	for _, p := range probes {
		want := oracle(keys, p)
		if got := tr.Lookup(p); got != want {
			t.Fatalf("FixedSize.Lookup(%d) = %d, want %d", p, got, want)
		}
	}
	if !tr.Contains(keys[17]) || tr.Contains(keys[17]+1) && keys[17]+1 != keys[18] {
		t.Fatal("FixedSize.Contains wrong")
	}
}

func TestFixedSizeSmallerBudgetBiggerPages(t *testing.T) {
	keys := data.Uniform(100_000, 1<<40, 1)
	small := NewFixedSize(keys, 1<<12)
	big := NewFixedSize(keys, 1<<20)
	if small.PageSize() <= big.PageSize() {
		t.Fatalf("smaller budget should force bigger pages: %d vs %d", small.PageSize(), big.PageSize())
	}
}

func BenchmarkLookupPage128(b *testing.B) {
	keys := data.Lognormal(1_000_000, 0, 2, 1_000_000_000, 1)
	tr := New([]uint64(keys), 128)
	probes := data.SampleExisting(keys, 1<<16, 2)
	rand.New(rand.NewSource(1)).Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	b.ResetTimer()
	var s int
	for i := 0; i < b.N; i++ {
		s += tr.Lookup(probes[i&(1<<16-1)])
	}
	sink = s
}

var sink int
