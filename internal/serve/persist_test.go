package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/vfs"
)

// TestPersistentStoreOracle drives the dir-backed Store against a map
// oracle across insert/flush/reopen cycles: membership, Len, and
// lower-bound positions (checked against the sorted committed set) must
// match, and a cold reopen must serve everything without retraining.
func TestPersistentStoreOracle(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	base := data.Uniform(8_000, 1_000_000_000, 4)
	oracle := map[uint64]bool{}
	for _, k := range base {
		oracle[k] = true
	}

	st, err := Open(base, core.Config{}, Options{Dir: dir, MergeThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3000; step++ {
		var k uint64
		switch rng.Intn(3) {
		case 0:
			k = base[rng.Intn(len(base))] // re-insert
		default:
			k = uint64(rng.Int63n(1_500_000_000))
		}
		st.Insert(k)
		oracle[k] = true
		if step%977 == 0 {
			st.Flush()
			checkOracle(t, st, oracle, rng)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Flush()
	checkOracle(t, st, oracle, rng)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold reopen: identical committed state, zero models trained.
	st2, err := Open(nil, core.Config{}, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	stats, ok := st2.StorageStats()
	if !ok {
		t.Fatal("StorageStats reported in-memory for a dir-backed store")
	}
	if stats.ModelsTrained != 0 {
		t.Fatalf("cold reopen trained %d models", stats.ModelsTrained)
	}
	if stats.ModelsLoaded == 0 {
		t.Fatal("cold reopen deserialized nothing")
	}
	checkOracle(t, st2, oracle, rng)
}

func checkOracle(t *testing.T, st *Store, oracle map[uint64]bool, rng *rand.Rand) {
	t.Helper()
	if st.Len() != len(oracle) {
		t.Fatalf("Len=%d, oracle %d", st.Len(), len(oracle))
	}
	committed := make([]uint64, 0, len(oracle))
	for k := range oracle {
		committed = append(committed, k)
	}
	slices.Sort(committed)
	probes := make([]uint64, 0, 600)
	for i := 0; i < 300; i++ {
		probes = append(probes, committed[rng.Intn(len(committed))])
		probes = append(probes, uint64(rng.Int63n(2_000_000_000)))
	}
	pos := st.LookupBatch(probes)
	hits := st.ContainsBatch(probes)
	for i, k := range probes {
		if got, want := hits[i], oracle[k]; got != want {
			t.Fatalf("Contains(%d)=%v, oracle %v", k, got, want)
		}
		want, _ := slices.BinarySearch(committed, k)
		if pos[i] != want {
			t.Fatalf("Lookup(%d)=%d, want %d", k, pos[i], want)
		}
		if st.Lookup(k) != want || st.Contains(k) != oracle[k] {
			t.Fatalf("per-key path diverged from batch at %d", k)
		}
	}
}

// TestPersistentStoreConcurrent hammers a dir-backed Store from writer and
// reader goroutines with background flushes and compactions — the
// engine's lock-free read plane under the race detector.
func TestPersistentStoreConcurrent(t *testing.T) {
	st, err := Open(nil, core.Config{}, Options{Dir: t.TempDir(), MergeThreshold: 500, CompactFanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 2500
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Int63n(writers * perWriter))
				st.Contains(k)
				st.Lookup(k)
				st.Len()
			}
		}(int64(g))
	}
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				st.Insert(uint64(w*perWriter + i))
			}
			if err := st.Sync(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	st.Flush()
	if st.Len() != writers*perWriter {
		t.Fatalf("Len=%d, want %d", st.Len(), writers*perWriter)
	}
	for i := 0; i < writers*perWriter; i += 97 {
		if !st.Contains(uint64(i)) {
			t.Fatalf("lost key %d", i)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentStoreInitialKeysIdempotent verifies that reopening with
// the same bootstrap keys does not duplicate them on disk.
func TestPersistentStoreInitialKeysIdempotent(t *testing.T) {
	dir := t.TempDir()
	keys := data.Uniform(4_000, 1_000_000, 9)
	for round := 0; round < 3; round++ {
		st, err := Open(keys, core.Config{}, Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != len(keys) {
			t.Fatalf("round %d: Len=%d, want %d", round, st.Len(), len(keys))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaleMergeSignalDoesNotFlush: a merge token queued while a drain was
// running used to drain whatever had trickled in since — a retrain of the
// resident run for a sliver of keys, straight after a full one. k
// thresholds of keys through InsertDurable must produce at most k
// background drains, and — k thresholds being well under the engine's spill
// size — no segment file: one resident run serves them all.
func TestStaleMergeSignalDoesNotFlush(t *testing.T) {
	const thresh, k, batch = 1024, 12, 64
	st, err := Open(nil, core.Config{}, Options{Dir: t.TempDir(), MergeThreshold: thresh, CompactFanout: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]uint64, batch)
			for b := 0; b < k*thresh/batch/2; b++ {
				for i := range keys {
					keys[i] = uint64((b*batch+i)*2 + w)
				}
				if err := st.InsertDurable(keys...); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// The merger may still be draining the last full threshold (its keys are
	// then neither pending nor served yet); it must come to rest with less
	// than one threshold pending, not zero by force.
	for deadline := time.Now().Add(10 * time.Second); st.Pending() >= thresh || st.Len()+st.Pending() != k*thresh; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("merger never came to rest: %d served, %d pending", st.Len(), st.Pending())
		}
	}
	stats, _ := st.StorageStats()
	if stats.Drains > k || stats.Flushes != 0 || stats.Segments != 1 || stats.DiskBytes != 0 {
		t.Fatalf("%d drains, %d flushes, %d segments (%d bytes on disk) for %d thresholds of keys",
			stats.Drains, stats.Flushes, stats.Segments, stats.DiskBytes, k)
	}
	if served := st.Len(); served <= (k-1)*thresh {
		t.Fatalf("%d keys served and %d pending after %d thresholds of keys", served, st.Pending(), k)
	}
}

// TestPreloadIsOneSegmentFile: Open's initial keys are bulk-loaded — one
// segment file, counted as the one flush, nothing left in the log — and a
// fault at that file's commit (ENOSPC on its write, EIO on its fsync) fails
// Open, after which the directory opens with the same preload. Both key
// kinds.
func TestPreloadIsOneSegmentFile(t *testing.T) {
	keys := data.Uniform(20_000, 1<<40, 31)
	strs := make([]string, len(keys))
	for i, k := range keys {
		strs[i] = fmt.Sprintf("doc/%012x", k)
	}
	open := func(str bool, opt Options) (*Store, error) {
		if str {
			return OpenString(strs, core.Config{}, opt)
		}
		return Open(keys, core.Config{}, opt)
	}
	for _, str := range []bool{false, true} {
		for _, fault := range []struct {
			op    vfs.Op
			cause error
		}{{vfs.OpWrite, syscall.ENOSPC}, {vfs.OpSync, errors.New("EIO")}} {
			fault := fault
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
			ffs.SetHook(func(op vfs.Op, path string) error {
				if op == fault.op && strings.HasSuffix(path, ".seg.tmp") {
					return fault.cause
				}
				return nil
			})
			if st, err := open(str, Options{Dir: dir, FS: ffs}); !errors.Is(err, vfs.ErrInjected) {
				if err == nil {
					st.Close()
				}
				t.Fatalf("str=%v, %v fault at the segment commit: Open returned %v", str, fault.op, err)
			}
			st, err := open(str, Options{Dir: dir})
			if err != nil {
				t.Fatalf("str=%v, %v fault: the second Open: %v", str, fault.op, err)
			}
			stats, _ := st.StorageStats()
			if st.Len() != len(keys) || stats.Segments != 1 || stats.Flushes != 1 || stats.WALBytes != 0 {
				t.Fatalf("str=%v: Len %d, %d segments, %d flushes, %d WAL bytes after a preloaded Open",
					str, st.Len(), stats.Segments, stats.Flushes, stats.WALBytes)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
