package serve

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"learnedindex/internal/core"
)

// strOracleKeys builds a mixed-shape string key universe: URL-ish keys on
// hot shared prefixes (prefix collisions for the codec), short keys, and
// raw binary keys.
func strOracleKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	set := map[string]struct{}{}
	for len(set) < n {
		switch rng.Intn(3) {
		case 0:
			set[fmt.Sprintf("https://example.com/%02d/p%06d", rng.Intn(8), rng.Intn(1_000_000))] = struct{}{}
		case 1:
			set[fmt.Sprintf("k%06d", rng.Intn(900_000))] = struct{}{}
		default:
			b := make([]byte, 1+rng.Intn(16))
			for i := range b {
				b[i] = byte(rng.Intn(256))
			}
			set[string(b)] = struct{}{}
		}
	}
	out := make([]string, 0, n)
	for k := range set {
		out = append(out, k)
	}
	return out
}

// checkStringStoreOracle differentially verifies the whole read surface of
// a string store against a flat sorted oracle: Len, point lookups and
// membership (with boundary-mutated probes), bounded and unbounded scans,
// and learned counts.
func checkStringStoreOracle(t *testing.T, s *Store, oracle []string, rng *rand.Rand) {
	t.Helper()
	if s.Len() != len(oracle) {
		t.Fatalf("Len=%d, want %d", s.Len(), len(oracle))
	}
	for i := 0; i < 800; i++ {
		k := oracle[rng.Intn(len(oracle))]
		if !s.ContainsString(k) {
			t.Fatalf("lost key %q", k)
		}
		for _, m := range []string{k, k + "\x00", k[:len(k)-1], k + "~"} {
			want := sort.SearchStrings(oracle, m)
			if got := s.LookupString(m); got != want {
				t.Fatalf("LookupString(%q)=%d, want %d", m, got, want)
			}
			if got := s.ContainsString(m); got != (want < len(oracle) && oracle[want] == m) {
				t.Fatalf("ContainsString(%q)=%v", m, got)
			}
		}
	}
	// The batch form answers like the per-key form, hits and misses mixed.
	var batch []string
	for i := 0; i < 300; i++ {
		k := oracle[rng.Intn(len(oracle))]
		batch = append(batch, k, k+"\x00")
	}
	batch = append(batch, "", "\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\xff")
	for i, has := range s.ContainsBatchString(batch) {
		if has != s.ContainsString(batch[i]) {
			t.Fatalf("ContainsBatchString[%d] (%q)=%v, ContainsString disagrees", i, batch[i], has)
		}
	}
	for i, pos := range s.LookupBatchString(batch) {
		if want := sort.SearchStrings(oracle, batch[i]); pos != want {
			t.Fatalf("LookupBatchString[%d] (%q)=%d, want %d", i, batch[i], pos, want)
		}
	}
	for i := 0; i < 60; i++ {
		a := oracle[rng.Intn(len(oracle))]
		b := oracle[rng.Intn(len(oracle))]
		lo, hi := min(a, b), max(a, b)
		li, hj := sort.SearchStrings(oracle, lo), sort.SearchStrings(oracle, hi)
		got := s.ScanBatchString(lo, hi, nil)
		if !slices.Equal(got, oracle[li:hj]) {
			t.Fatalf("ScanBatchString(%q,%q): %d keys, want %d", lo, hi, len(got), hj-li)
		}
		if n := s.CountRangeString(lo, hi); n != hj-li {
			t.Fatalf("CountRangeString(%q,%q)=%d, want %d", lo, hi, n, hj-li)
		}
		if n := s.CountFromString(lo); n != len(oracle)-li {
			t.Fatalf("CountFromString(%q)=%d, want %d", lo, n, len(oracle)-li)
		}
	}
	// Unbounded-above scan from a mid key, streamed through the iterator.
	lo := oracle[rng.Intn(len(oracle))]
	it := s.ScanStringFrom(lo)
	var got []string
	for it.Next() {
		got = append(got, it.Key())
	}
	it.Close()
	if want := oracle[sort.SearchStrings(oracle, lo):]; !slices.Equal(got, want) {
		t.Fatalf("ScanStringFrom(%q): %d keys, want %d", lo, len(got), len(want))
	}
}

// TestStringStoreOracleInMemory seeds an in-memory string store, inserts a
// second wave (hitting buffers, drains, and retrains), and checks the full
// oracle before and after a Flush barrier.
func TestStringStoreOracleInMemory(t *testing.T) {
	keys := strOracleKeys(30_000, 1)
	initial, extra := keys[:20_000], keys[20_000:]
	s := NewString(initial, core.Config{}, Options{Shards: 5, MergeThreshold: 512})
	defer s.Close()
	for _, k := range extra {
		s.InsertString(k)
	}
	s.Flush()
	oracle := slices.Clone(keys)
	slices.Sort(oracle)
	checkStringStoreOracle(t, s, oracle, rand.New(rand.NewSource(2)))
	if s.NumShards() != 5 {
		t.Fatalf("NumShards=%d", s.NumShards())
	}
}

// TestStringStoreScanSeesBuffered locks in the scan visibility rule:
// still-buffered string inserts are streamed (and counted) before any
// drain publishes them.
func TestStringStoreScanSeesBuffered(t *testing.T) {
	s := NewString([]string{"b", "d", "f"}, core.Config{}, Options{Shards: 2, MergeThreshold: 1 << 20})
	defer s.Close()
	s.InsertString("a")
	s.InsertString("e")
	if s.ContainsString("a") {
		t.Fatal("buffered key visible to point reads before drain")
	}
	got := s.ScanBatchString("a", "zzz", nil)
	if want := []string{"a", "b", "d", "e", "f"}; !slices.Equal(got, want) {
		t.Fatalf("scan missed buffered keys: %q", got)
	}
	if n := s.CountRangeString("a", "zzz"); n != 5 {
		t.Fatalf("CountRangeString=%d, want 5", n)
	}
}

// TestStringStoreEndToEndPersistent is the acceptance flow: strings travel
// insert → durable WAL commit → flush → compaction → crash recovery →
// point lookup + bounded and unbounded range scans in codec order.
func TestStringStoreEndToEndPersistent(t *testing.T) {
	dir := t.TempDir()
	keys := strOracleKeys(12_000, 10)
	initial, durable, buffered := keys[:6_000], keys[6_000:10_000], keys[10_000:]

	s, err := OpenString(initial, core.Config{}, Options{Dir: dir, MergeThreshold: 1024, CompactFanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Durable group-committed wave, then several flushes to stack segments
	// for compaction.
	for lo := 0; lo < len(durable); lo += 500 {
		hi := min(lo+500, len(durable))
		if err := s.InsertDurableString(durable[lo:hi]...); err != nil {
			t.Fatal(err)
		}
		s.Flush()
	}
	for _, k := range buffered {
		s.InsertString(k)
	}
	if err := s.Sync(); err != nil { // durability barrier for the buffered wave
		t.Fatal(err)
	}
	s.Flush()
	oracle := slices.Clone(keys)
	slices.Sort(oracle)
	checkStringStoreOracle(t, s, oracle, rand.New(rand.NewSource(11)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: v2 segments (flush- and compaction-written) deserialize and
	// serve identically — no retraining, same oracle.
	s2, err := OpenString(nil, core.Config{}, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st, ok := s2.StorageStats(); !ok || st.ModelsTrained != 0 || st.ModelsLoaded != st.Segments {
		t.Fatalf("reopen trained models: %+v", st)
	}
	checkStringStoreOracle(t, s2, oracle, rand.New(rand.NewSource(12)))
}

// TestStringStoreConcurrent hammers a string store from concurrent
// inserters, readers, and scanners while background drains retrain shards
// — the -race stress for the string mode.
func TestStringStoreConcurrent(t *testing.T) {
	keys := strOracleKeys(12_000, 20)
	initial, inserts := keys[:8_000], keys[8_000:]
	s := NewString(initial, core.Config{}, Options{Shards: 4, MergeThreshold: 256})
	defer s.Close()

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := w; i < len(inserts); i += 2 {
				s.InsertString(inserts[i])
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(30 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := initial[rng.Intn(len(initial))]
				if !s.ContainsString(k) {
					panic(fmt.Sprintf("lost committed key %q", k))
				}
				s.LookupString(k)
				it := s.ScanString(k, k+"\xff\xff")
				prev, first := "", true
				for it.Next() {
					if !first && it.Key() <= prev {
						panic("scan out of order")
					}
					prev, first = it.Key(), false
				}
				it.Close()
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	s.Flush()
	oracle := slices.Clone(keys)
	slices.Sort(oracle)
	checkStringStoreOracle(t, s, oracle, rand.New(rand.NewSource(21)))
}

// TestStringStoreModePanics locks in the cross-mode discipline at the
// serving layer.
func TestStringStoreModePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	su := New([]uint64{1, 2, 3}, core.Config{}, Options{Shards: 2})
	defer su.Close()
	mustPanic("InsertString", func() { su.InsertString("x") })
	mustPanic("LookupString", func() { su.LookupString("x") })
	mustPanic("ContainsString", func() { su.ContainsString("x") })
	mustPanic("ContainsBatchString", func() { su.ContainsBatchString([]string{"x"}) })
	mustPanic("ScanString", func() { su.ScanString("a", "b") })
	mustPanic("CountRangeString", func() { su.CountRangeString("a", "b") })
	ss := NewString([]string{"a", "b"}, core.Config{}, Options{Shards: 2})
	defer ss.Close()
	mustPanic("Insert", func() { ss.Insert(1) })
	mustPanic("Lookup", func() { ss.Lookup(1) })
	mustPanic("Contains", func() { ss.Contains(1) })
	mustPanic("Scan", func() { ss.Scan(1, 2) })
	mustPanic("CountRange", func() { ss.CountRange(1, 2) })
	mustPanic("LookupBatch", func() { ss.LookupBatch([]uint64{1}) })
}
