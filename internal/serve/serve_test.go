package serve

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
)

func oracle(keys []uint64, k uint64) int {
	return sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
}

// TestStoreLookupMatchesOracle: with no pending inserts, global positions
// over the store equal lower bounds over the flat sorted array.
func TestStoreLookupMatchesOracle(t *testing.T) {
	keys := data.LognormalPaper(60_000, 1)
	probes := append(data.SampleExisting(keys, 3000, 2), data.SampleMissing(keys, 1000, 3)...)
	st := New(keys, core.Config{}, Options{})
	defer st.Close()
	if st.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(keys))
	}
	for _, p := range probes {
		if got, want := st.Lookup(p), oracle(keys, p); got != want {
			t.Fatalf("Lookup(%d) = %d, want %d", p, got, want)
		}
		if got, want := st.Contains(p), keys.Contains(p); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", p, got, want)
		}
	}
}

// TestStoreBatchMatchesPerKey: LookupBatch/ContainsBatch must agree with
// per-key Lookup/Contains on uniform, lognormal, and adversarial
// (all-equal, empty, out-of-range) batches — probe order preserved.
func TestStoreBatchMatchesPerKey(t *testing.T) {
	keys := data.LognormalPaper(60_000, 4)
	maxKey := keys[len(keys)-1]
	st := New(keys, core.Config{}, Options{})
	defer st.Close()

	batches := map[string][]uint64{
		"empty":     {},
		"all-equal": {keys[500], keys[500], keys[500], keys[500], keys[500]},
		"below-min": {0, 0, 1},
		"above-max": {maxKey + 1, ^uint64(0), maxKey + 12345},
		"uniform":   data.Uniform(5000, maxKey+1000, 5),
		"lognormal": data.SampleExisting(keys, 5000, 6),
		"mixed":     append(data.SampleMissing(keys, 2000, 7), data.SampleExisting(keys, 2000, 8)...),
	}
	// Batches arrive unsorted: shuffle to prove order preservation.
	rng := rand.New(rand.NewSource(9))
	for name, batch := range batches {
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		got := st.LookupBatch(batch)
		cgot := st.ContainsBatch(batch)
		if len(got) != len(batch) || len(cgot) != len(batch) {
			t.Fatalf("%s: result length mismatch", name)
		}
		for i, k := range batch {
			if want := st.Lookup(k); got[i] != want {
				t.Fatalf("%s[%d]: LookupBatch(%d) = %d, per-key %d", name, i, k, got[i], want)
			}
			if want := st.Contains(k); cgot[i] != want {
				t.Fatalf("%s[%d]: ContainsBatch(%d) = %v, per-key %v", name, i, k, cgot[i], want)
			}
		}
	}
}

// TestStoreInsertVisibilityAndSetSemantics: inserts are invisible until a
// drain, Flush is a visibility barrier, and duplicates never inflate Len.
func TestStoreInsertVisibilityAndSetSemantics(t *testing.T) {
	keys := data.Dense(10_000, 0, 10) // 0, 10, 20, ...
	st := New(keys, core.Config{}, Options{MergeThreshold: 1 << 20})
	defer st.Close()

	st.Insert(5)
	st.Insert(5)      // duplicate buffered insert
	st.Insert(20)     // re-insert of a committed key
	st.Insert(99_995) // tail append
	if st.Contains(5) {
		t.Fatal("insert visible before flush")
	}
	if st.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", st.Pending())
	}
	st.Flush()
	if st.Pending() != 0 {
		t.Fatalf("Pending after flush = %d", st.Pending())
	}
	for _, k := range []uint64{5, 20, 99_995} {
		if !st.Contains(k) {
			t.Fatalf("missing %d after flush", k)
		}
	}
	if got, want := st.Len(), len(keys)+2; got != want { // only 5 and 99_995 are new
		t.Fatalf("Len = %d, want %d", got, want)
	}
	// Global positions stay exact against a flat oracle.
	all := append(append([]uint64{}, keys...), 5, 99_995)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, p := range []uint64{0, 5, 6, 20, 50_000, 99_995, 1 << 40} {
		if got, want := st.Lookup(p), oracle(all, p); got != want {
			t.Fatalf("Lookup(%d) = %d, want %d", p, got, want)
		}
	}
}

// TestStoreBackgroundMerge: keys that reach the merge threshold must be
// served by the engine's own drain, with no Flush or Close before the
// checks, in both key modes; the store must come to rest with fewer than
// the threshold pending and every key served or pending.
func TestStoreBackgroundMerge(t *testing.T) {
	const thresh, inserts = 64, 1000
	keys := data.Dense(4096, 0, 4)
	for _, strMode := range []bool{false, true} {
		sf := openBatchSurface(t, strMode, keys, Options{MergeThreshold: thresh})
		st := sf.st
		for i := uint64(0); i < inserts; i++ {
			sf.insert(i*4 + 1)
		}
		resting := func() bool {
			return st.Pending() < thresh && st.Len()+st.Pending() == len(keys)+inserts
		}
		for deadline := time.Now().Add(10 * time.Second); !resting(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("str=%v: drains never came to rest: %d served, %d pending", strMode, st.Len(), st.Pending())
			}
		}
		served := st.Len() - len(keys)
		if served < inserts-thresh+1 {
			t.Fatalf("str=%v: %d of %d inserted keys served in the background", strMode, served, inserts)
		}
		for i := uint64(0); i < uint64(served); i++ { // drains keep insertion order's prefix
			if !sf.contains(i*4 + 1) {
				t.Fatalf("str=%v: drained key %d not served", strMode, i*4+1)
			}
		}
		if st.Merges() < 2 {
			t.Fatalf("str=%v: %d publications, want the bulk load and a drain", strMode, st.Merges())
		}
		st.Close()
	}
}

// TestStoreConcurrent is the -race workhorse: concurrent inserters,
// point readers, batch readers, and flushers all running while background
// merges retrain and swap snapshots. Readers assert only view-consistent
// invariants during the storm; exactness is checked after the barrier.
func TestStoreConcurrent(t *testing.T) {
	base := data.LognormalPaper(30_000, 11)
	st := New(base, core.Config{}, Options{MergeThreshold: 256})
	defer st.Close()

	const (
		writers = 4
		perW    = 3000
	)
	inserted := make([][]uint64, writers)
	for w := range inserted {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		ks := make([]uint64, perW)
		for i := range ks {
			ks[i] = uint64(rng.Int63())
		}
		inserted[w] = ks
	}

	var writerWg, readerWg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 16)
	report := func(msg string) {
		select {
		case fail <- msg:
		default:
		}
	}

	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for _, k := range inserted[w] {
				st.Insert(k)
			}
		}(w)
	}
	probes := data.SampleExisting(base, 4096, 12)
	for g := 0; g < 4; g++ {
		readerWg.Add(1)
		go func(g int) {
			defer readerWg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := probes[(i*31+g)%len(probes)]
				if !st.Contains(k) {
					report("committed base key vanished")
					return
				}
				if p := st.Lookup(k); p < 0 || p > len(base)+writers*perW {
					report("position out of any plausible range")
					return
				}
			}
		}(g)
	}
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		batch := make([]uint64, 512)
		rng := rand.New(rand.NewSource(13))
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range batch {
				batch[i] = probes[rng.Intn(len(probes))]
			}
			res := st.ContainsBatch(batch)
			for i := range res {
				if !res[i] {
					report("batch lost a committed base key")
					return
				}
			}
			st.Flush() // flushers race the background merger on purpose
		}
	}()

	writerWg.Wait()
	close(stop)
	readerWg.Wait()
	close(fail)
	if msg, open := <-fail; open {
		t.Fatal(msg)
	}

	// Barrier, then exactness: every insert visible, Len matches the
	// distinct union, batch results match a flat oracle.
	st.Flush()
	union := make(map[uint64]struct{}, len(base)+writers*perW)
	for _, k := range base {
		union[k] = struct{}{}
	}
	for _, ks := range inserted {
		for _, k := range ks {
			union[k] = struct{}{}
			if !st.Contains(k) {
				t.Fatalf("insert %d not visible after flush", k)
			}
		}
	}
	if st.Len() != len(union) {
		t.Fatalf("Len = %d, want %d distinct keys", st.Len(), len(union))
	}
	flat := make([]uint64, 0, len(union))
	for k := range union {
		flat = append(flat, k)
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i] < flat[j] })
	checks := append(append([]uint64{}, probes[:512]...), inserted[0][:512]...)
	for i, p := range st.LookupBatch(checks) {
		if want := oracle(flat, checks[i]); p != want {
			t.Fatalf("post-storm Lookup(%d) = %d, want %d", checks[i], p, want)
		}
	}
}
