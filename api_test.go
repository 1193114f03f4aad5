// api_test exercises the public facade exactly as a downstream user would:
// only the root package import, no internal paths.
package learnedindex_test

import (
	"sort"
	"testing"

	"learnedindex"
)

func sortedKeys(n int) []uint64 {
	keys := make([]uint64, n)
	v := uint64(17)
	for i := range keys {
		v += uint64(i%97) + 1
		keys[i] = v
	}
	return keys
}

func TestPublicAPIRangeIndex(t *testing.T) {
	keys := sortedKeys(50_000)
	idx := learnedindex.New(keys, learnedindex.DefaultConfig(500))
	for _, k := range []uint64{keys[0], keys[777], keys[49_999], keys[49_999] + 1, 0} {
		want := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
		if got := idx.Lookup(k); got != want {
			t.Fatalf("Lookup(%d) = %d, want %d", k, got, want)
		}
	}
	if !idx.Contains(keys[100]) {
		t.Fatal("Contains broken")
	}
	s, e := idx.RangeScan(keys[10], keys[20])
	if s != 10 || e != 20 {
		t.Fatalf("RangeScan = [%d,%d)", s, e)
	}
}

func TestPublicAPICustomConfig(t *testing.T) {
	keys := sortedKeys(20_000)
	cfg := learnedindex.Config{
		Top:        learnedindex.TopMultivariate,
		StageSizes: []int{200},
	}
	idx := learnedindex.New(keys, cfg)
	for _, k := range []uint64{keys[5], keys[19_000]} {
		if !idx.Contains(k) {
			t.Fatalf("missing %d", k)
		}
	}
}

func TestPublicAPICompiledPlan(t *testing.T) {
	keys := sortedKeys(30_000)
	idx := learnedindex.New(keys, learnedindex.DefaultConfig(300))
	var p *learnedindex.Plan = idx.Plan()
	probes := []uint64{0, keys[0], keys[12_345], keys[29_999], keys[29_999] + 1}
	out := make([]int, len(probes))
	p.LookupBatch(probes, out)
	for i, k := range probes {
		want := idx.Lookup(k)
		if got := p.Lookup(k); got != want || out[i] != want {
			t.Fatalf("Plan lookup(%d) = %d/%d, want %d", k, got, out[i], want)
		}
	}
	if !p.Contains(keys[7]) || p.Contains(keys[29_999]+1) {
		t.Fatal("Plan.Contains broken")
	}
}

func TestPublicAPILearnedHash(t *testing.T) {
	keys := sortedKeys(20_000)
	h := learnedindex.NewLearnedHash(keys, len(keys), 1000)
	st := learnedindex.MeasureConflicts(keys, len(keys), h.Hash)
	rnd := learnedindex.MeasureConflicts(keys, len(keys), learnedindex.RandomHashFunc(len(keys)))
	// These keys are near-regular; the learned hash should crush random.
	if st.ConflictRate() >= rnd.ConflictRate() {
		t.Fatalf("learned %.3f >= random %.3f", st.ConflictRate(), rnd.ConflictRate())
	}
}

func TestPublicAPIGridSearch(t *testing.T) {
	keys := sortedKeys(20_000)
	probes := keys[:2000]
	res := learnedindex.GridSearch(keys, probes,
		learnedindex.DefaultGrid([]int{50, 200})[:4], nil)
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].AvgLookup <= 0 {
		t.Fatal("no measurement")
	}
}

func TestPublicAPIParallelTraining(t *testing.T) {
	keys := sortedKeys(80_000)
	seq := learnedindex.NewWithTrainWorkers(keys, learnedindex.DefaultConfig(400), 1)
	par := learnedindex.NewWithTrainWorkers(keys, learnedindex.DefaultConfig(400), 4)
	for _, k := range []uint64{0, keys[0], keys[40_000], keys[79_999], keys[79_999] + 1} {
		if a, b := seq.Lookup(k), par.Lookup(k); a != b {
			t.Fatalf("Lookup(%d): sequential %d, parallel %d", k, a, b)
		}
	}
	if seq.MaxAbsErr() != par.MaxAbsErr() {
		t.Fatal("trainers disagree on error stats")
	}
}

func TestPublicAPIInsertDurable(t *testing.T) {
	dir := t.TempDir()
	st, err := learnedindex.OpenStore(nil, learnedindex.Config{},
		learnedindex.StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(2_000)
	if err := st.InsertDurable(keys...); err != nil {
		t.Fatal(err)
	}
	st.Flush()
	if !st.Contains(keys[500]) {
		t.Fatal("durable insert not served after flush")
	}
	stats, ok := st.StorageStats()
	if !ok || stats.Commits == 0 || stats.WALSyncs == 0 {
		t.Fatalf("commit plane not recorded: %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := learnedindex.OpenStore(nil, learnedindex.Config{}, learnedindex.StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(keys) {
		t.Fatalf("Len=%d after reopen, want %d", re.Len(), len(keys))
	}
}

func TestPublicAPIStore(t *testing.T) {
	keys := sortedKeys(50_000)
	st := learnedindex.NewStore(keys, learnedindex.Config{}, learnedindex.StoreOptions{})
	defer st.Close()
	batch := []uint64{keys[40_000], keys[0], keys[123], keys[49_999] + 1}
	got := st.LookupBatch(batch)
	for i, k := range batch {
		want := sort.Search(len(keys), func(j int) bool { return keys[j] >= k })
		if got[i] != want {
			t.Fatalf("LookupBatch[%d](%d) = %d, want %d", i, k, got[i], want)
		}
	}
	st.Insert(keys[49_999] + 7)
	st.Flush()
	if cb := st.ContainsBatch([]uint64{keys[49_999] + 7, keys[49_999] + 8}); !cb[0] || cb[1] {
		t.Fatalf("ContainsBatch after flush = %v, want [true false]", cb)
	}
	if st.Len() != len(keys)+1 {
		t.Fatalf("Len = %d, want %d", st.Len(), len(keys)+1)
	}
}

// TestRangeScanEquivalence pins the documented RangeScan contract against
// sort.Search: for arbitrary bounds — existing keys, gaps, out-of-domain,
// empty, and inverted ranges — both endpoints are exactly the sort.Search
// lower bounds, on the interpreted index and its compiled plan alike.
func TestRangeScanEquivalence(t *testing.T) {
	keys := sortedKeys(40_000)
	idx := learnedindex.New(keys, learnedindex.DefaultConfig(400))
	lb := func(k uint64) int {
		return sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
	}
	bounds := []uint64{0, keys[0], keys[0] + 1, keys[123], keys[39_999], keys[39_999] + 5, ^uint64(0)}
	for _, a := range bounds {
		for _, b := range bounds {
			s, e := idx.RangeScan(a, b)
			if ws, we := lb(a), lb(b); s != ws || e != we {
				t.Fatalf("RangeScan(%d,%d) = [%d,%d), want [%d,%d)", a, b, s, e, ws, we)
			}
			ps, pe := idx.Plan().RangeScan(a, b)
			if ps != s || pe != e {
				t.Fatalf("Plan.RangeScan(%d,%d) = [%d,%d), want [%d,%d)", a, b, ps, pe, s, e)
			}
		}
	}
}

// TestPublicAPIScan exercises the streaming scan surface end to end from
// the facade: Scan/Seek/NextBatch/Close, ScanBatch, and CountRange over a
// store with both merged and still-buffered keys.
func TestPublicAPIScan(t *testing.T) {
	keys := sortedKeys(30_000)
	st := learnedindex.NewStore(keys, learnedindex.Config{}, learnedindex.StoreOptions{})
	defer st.Close()
	extra := keys[29_999] + 13
	st.Insert(extra) // buffered: scans must still see it

	lo, hi := keys[100], keys[200]
	var it *learnedindex.Iterator = st.Scan(lo, hi)
	got := []uint64{}
	for it.Next() {
		got = append(got, it.Key())
	}
	it.Close()
	want := keys[100:200]
	if len(got) != len(want) {
		t.Fatalf("Scan yielded %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if n := st.CountRange(lo, hi); n != 100 {
		t.Fatalf("CountRange = %d, want 100", n)
	}
	if n := st.CountRange(0, ^uint64(0)); n != len(keys)+1 {
		t.Fatalf("CountRange(full) = %d, want %d (buffered insert missing?)", n, len(keys)+1)
	}
	batch := st.ScanBatch(extra, extra+1, nil)
	if len(batch) != 1 || batch[0] != extra {
		t.Fatalf("ScanBatch over buffered key = %v", batch)
	}
	// Seek repositions within the open range.
	it2 := st.Scan(keys[0], keys[29_999])
	defer it2.Close()
	if !it2.Seek(keys[500]) || it2.Key() != keys[500] {
		t.Fatalf("Seek landed on %d, want %d", it2.Key(), keys[500])
	}
}

// TestPublicAPIScanPersistent runs the same surface against the disk
// engine: scans see acked-but-unflushed writes, survive flushes, and
// CountRange stays exact across a reopen.
func TestPublicAPIScanPersistent(t *testing.T) {
	dir := t.TempDir()
	st, err := learnedindex.OpenStore(nil, learnedindex.Config{}, learnedindex.StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(5_000)
	if err := st.InsertDurable(keys...); err != nil {
		t.Fatal(err)
	}
	if got := st.ScanBatch(0, ^uint64(0), nil); len(got) != len(keys) {
		t.Fatalf("pre-flush scan = %d keys, want %d", len(got), len(keys))
	}
	st.Flush()
	if n := st.CountRange(keys[10], keys[20]); n != 10 {
		t.Fatalf("CountRange = %d, want 10", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := learnedindex.OpenStore(nil, learnedindex.Config{}, learnedindex.StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.ScanBatch(0, ^uint64(0), nil); len(got) != len(keys) {
		t.Fatalf("post-reopen scan = %d keys, want %d", len(got), len(keys))
	}
}

// TestPublicAPIStringStore drives the string-keyed facade end-to-end:
// codec helpers, the in-memory string store, and the persistent store
// surviving a reopen with scans in codec order.
func TestPublicAPIStringStore(t *testing.T) {
	if learnedindex.KeyPrefix("abc") >= learnedindex.KeyPrefix("abd") {
		t.Fatal("KeyPrefix is not order-preserving")
	}
	ck := learnedindex.CompositeKey("user", "42")
	parts, err := learnedindex.SplitCompositeKey(ck)
	if err != nil || len(parts) != 2 || parts[0] != "user" || parts[1] != "42" {
		t.Fatalf("composite round-trip: %q, %v", parts, err)
	}

	urls := []string{
		"https://a.example/1", "https://a.example/2", "https://b.example/1",
		"https://c.example/9", "k1", "k2",
	}
	st := learnedindex.NewStringStore(urls, learnedindex.Config{}, learnedindex.StoreOptions{})
	st.InsertString("https://b.example/0")
	st.Flush()
	if !st.ContainsString("https://b.example/0") || st.ContainsString("nope") {
		t.Fatal("ContainsString broken")
	}
	if got := st.LookupString("https://b.example/1"); got != 3 {
		t.Fatalf("LookupString = %d, want 3", got)
	}
	var it *learnedindex.StringIterator = st.ScanString("https://a.", "https://c.")
	var scanned []string
	for it.Next() {
		scanned = append(scanned, it.Key())
	}
	it.Close()
	if len(scanned) != 4 || scanned[0] != "https://a.example/1" || scanned[3] != "https://b.example/1" {
		t.Fatalf("ScanString = %q", scanned)
	}
	if n := st.CountRangeString("https://a.", "https://c."); n != 4 {
		t.Fatalf("CountRangeString = %d, want 4", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Persistent round trip through version-2 segment files.
	dir := t.TempDir()
	ps, err := learnedindex.OpenStringStore(urls, learnedindex.Config{}, learnedindex.StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.InsertDurableString("zz-last"); err != nil {
		t.Fatal(err)
	}
	ps.Flush()
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := learnedindex.OpenStringStore(nil, learnedindex.Config{}, learnedindex.StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(urls)+1 || !re.ContainsString("zz-last") {
		t.Fatalf("reopen lost keys: Len=%d", re.Len())
	}
	got := re.ScanBatchString("a", "zzzz", nil)
	if len(got) != len(urls)+1 {
		t.Fatalf("post-reopen scan = %d keys", len(got))
	}

	// Single-index surface: NewStringIndex over the same keys.
	idx := learnedindex.NewStringIndex(urls, learnedindex.Config{})
	if !idx.Contains("k1") || idx.Contains("k3") {
		t.Fatal("StringIndex.Contains broken")
	}
}
