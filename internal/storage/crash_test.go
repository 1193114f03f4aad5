package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"learnedindex/internal/vfs"
)

// crashMode is what the crash oracle needs of one key mode. The sizes
// shape a trial: steps[0]+Intn(steps[1]) steps of 1+Intn(batch) keys each,
// an unsynced tail of 3+Intn(tail) keys, and phantoms probes of a disjoint
// domain after recovery.
type crashMode[K comparable] struct {
	strKeys  bool
	trials   int
	seed     int64 // trial i runs on seed+i
	steps    [2]int
	batch    int
	tail     int
	phantoms int
	key      func(n int64) K
	append   func(e *Engine, keys ...K) error
	contains func(e *Engine, k K) bool
	keys     func(e *Engine) []K
}

// TestCrashRecoveryRandomTruncation is the randomized durability oracle,
// in the set-semantics style of core's delta_oracle_test: drive the engine
// with batches of fresh, duplicate, and re-inserted keys, interleave Sync,
// Drain and Flush at random (a Drain serves what was appended, which makes
// it an ack, and leaves the log as it is: the crash copy is then taken
// somewhere between a drain and the next spill), then simulate a crash by
// copying the directory with the WAL truncated at a random byte offset at
// or past the last fsync (bytes before the fsync ack cannot be lost;
// everything after it is fair game for tearing). Reopening the copy must
// serve exactly the oracle set: every flushed key, plus every key whose WAL
// record survived the truncation whole — acked keys are never lost, torn
// records never surface, and Len is exact. A second copy keeps the whole
// log and appends garbage to it: a torn frame past the last record hides
// nothing before it.
func TestCrashRecoveryRandomTruncation(t *testing.T) {
	crashOracle(t, crashMode[uint64]{
		trials: 12, seed: 1000, steps: [2]int{30, 40}, batch: 50, tail: 20, phantoms: 500,
		key:      func(n int64) uint64 { return uint64(n) },
		append:   (*Engine).Append,
		contains: (*Engine).Contains,
		keys:     (*Engine).Keys,
	})
}

// TestCrashRecoveryRandomTruncationStrings is the same oracle over string
// keys: key identity, record framing, and the fsync ack line all run
// through the codec path over wals-*.log files and version-2 segments.
func TestCrashRecoveryRandomTruncationStrings(t *testing.T) {
	crashOracle(t, crashMode[string]{
		strKeys: true, trials: 10, seed: 4000, steps: [2]int{25, 30}, batch: 40, tail: 15, phantoms: 300,
		key:      func(n int64) string { return fmt.Sprintf("k%010d", n) },
		append:   (*Engine).AppendString,
		contains: (*Engine).ContainsString,
		keys:     (*Engine).KeysStrings,
	})
}

func crashOracle[K comparable](t *testing.T, m crashMode[K]) {
	for trial := 0; trial < m.trials; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(m.seed + int64(trial)))
			dir := t.TempDir()
			// Compaction runs synchronously (below) so the dir copy is not
			// racing a background merge; its crash-safety is covered by
			// TestEngineCrashedCompactionRecovery.
			e, err := Open(dir, Options{NoCompactor: true, CompactFanout: 3, StringKeys: m.strKeys})
			if err != nil {
				t.Fatal(err)
			}

			flushed := map[K]bool{} // keys durable in segments
			synced := map[K]bool{}  // keys acked by Sync (superset incl. flushed)
			var syncedOff int64     // WAL offset covered by the last fsync ack
			// walRecords tracks (endOffset, keys) per record since the last
			// flush — the oracle for which tail keys survive a truncation.
			type rec struct {
				end  int64
				keys []K
			}
			var walRecords []rec
			ackAll := func() {
				for _, r := range walRecords {
					for _, k := range r.keys {
						synced[k] = true
					}
				}
			}

			steps := m.steps[0] + rng.Intn(m.steps[1])
			drains := 0
			var inserted []K
			for i := 0; i < steps; i++ {
				n := 1 + rng.Intn(m.batch)
				batch := make([]K, 0, n)
				for j := 0; j < n; j++ {
					switch rng.Intn(4) {
					case 0: // duplicate of an earlier insert
						if len(inserted) > 0 {
							batch = append(batch, inserted[rng.Intn(len(inserted))])
							continue
						}
						fallthrough
					default: // fresh key, bounded domain so overlaps happen too
						batch = append(batch, m.key(rng.Int63n(1_000_000_000)))
					}
				}
				inserted = append(inserted, batch...)
				if err := m.append(e, batch...); err != nil {
					t.Fatal(err)
				}
				walRecords = append(walRecords, rec{end: e.wal.size, keys: batch})

				switch rng.Intn(5) {
				case 0, 1: // Sync: ack everything appended so far
					if err := e.Sync(); err != nil {
						t.Fatal(err)
					}
					syncedOff = e.wal.size
					ackAll()
				case 2: // Flush: everything becomes segment-durable, WAL resets
					if err := e.Flush(); err != nil {
						t.Fatal(err)
					}
					if rng.Intn(3) == 0 {
						if err := e.Compact(); err != nil {
							t.Fatal(err)
						}
					}
					for _, r := range walRecords {
						for _, k := range r.keys {
							flushed[k] = true
							synced[k] = true
						}
					}
					walRecords = walRecords[:0]
					syncedOff = 0
				case 3: // Drain: served, so durable — in the log, which stays
					if err := e.Drain(); err != nil {
						t.Fatal(err)
					}
					drains++
					if e.wal.size == 0 { // the drain reached the spill size: not at these sizes
						t.Fatal("a drain trimmed the log")
					}
					syncedOff = e.wal.size
					ackAll()
					for _, r := range walRecords {
						for _, k := range r.keys {
							if !m.contains(e, k) {
								t.Fatalf("key %v not served after a drain", k)
							}
						}
					}
				}
			}
			if drains == 0 {
				t.Fatal("the trial never drained")
			}
			// Final ack so the trial always has a non-trivial acked set.
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			syncedOff = e.wal.size
			ackAll()
			// A little unsynced tail beyond the last ack, from a disjoint key
			// domain, eligible to tear.
			tail := make([]K, 3+rng.Intn(m.tail))
			for j := range tail {
				tail[j] = m.key(2_000_000_000 + rng.Int63n(1_000_000))
			}
			if err := m.append(e, tail...); err != nil {
				t.Fatal(err)
			}
			walRecords = append(walRecords, rec{end: e.wal.size, keys: tail})
			// Push the tail to the OS (no fsync): a crash may keep any prefix.
			if err := e.wal.w.Flush(); err != nil {
				t.Fatal(err)
			}
			walSize := e.wal.size

			// Crash copies: segments verbatim, the WAL truncated at a random
			// point in [syncedOff, walSize], or whole with garbage after it.
			images := []crashCopy{
				crashImage(t, dir, m.strKeys, syncedOff+rng.Int63n(walSize-syncedOff+1), nil),
				crashImage(t, dir, m.strKeys, walSize, []byte("torn-garbage\x01\x02")),
			}
			e.Close()

			for _, img := range images {
				if img.trunc < syncedOff {
					t.Fatalf("truncation %d cut below the fsync ack %d", img.trunc, syncedOff)
				}
				// Oracle: flushed keys plus every record fully within the cut.
				expected := map[K]bool{}
				for k := range flushed {
					expected[k] = true
				}
				for _, r := range walRecords {
					if r.end <= img.trunc {
						for _, k := range r.keys {
							expected[k] = true
						}
					}
				}

				re, err := Open(img.dir, Options{NoCompactor: true, StringKeys: m.strKeys})
				if err != nil {
					t.Fatalf("recovery failed: %v", err)
				}
				// Every acked key is served.
				for k := range synced {
					if !m.contains(re, k) {
						t.Fatalf("acked key %v lost after crash recovery", k)
					}
				}
				// Exactly the oracle set is served: Len is exact, membership
				// matches, and no torn-record key was invented.
				if re.Len() != len(expected) {
					t.Fatalf("Len=%d after recovery, oracle %d", re.Len(), len(expected))
				}
				for _, k := range m.keys(re) {
					if !expected[k] {
						t.Fatalf("recovery invented key %v", k)
					}
				}
				for k := range expected {
					if !m.contains(re, k) {
						t.Fatalf("recoverable key %v not served", k)
					}
				}
				// Probes from a disjoint domain must miss.
				for i := 0; i < m.phantoms; i++ {
					k := m.key(3_000_000_000 + rng.Int63n(1_000_000_000))
					if m.contains(re, k) {
						t.Fatalf("phantom key %v", k)
					}
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// crashCopy is a directory as a crash left it, and the length of its log.
type crashCopy struct {
	dir   string
	trunc int64
}

// crashImage copies dir into a fresh directory as a crash could leave it:
// every file verbatim except the one (active) log, which keeps its first
// cut bytes followed by garbage.
func crashImage(t *testing.T, dir string, strKeys bool, cut int64, garbage []byte) (img crashCopy) {
	t.Helper()
	isWAL := parseWALFileName
	if strKeys {
		isWAL = parseWALStrFileName
	}
	img.dir = t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// Single-threaded run: exactly one (active) log file exists.
		if _, ok := isWAL(ent.Name()); ok {
			data = append(data[:cut:cut], garbage...)
		}
		if err := os.WriteFile(filepath.Join(img.dir, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, wals, _, err := scanWALFiles(vfs.OS, img.dir, strKeys)
	if err != nil || len(wals) != 1 {
		t.Fatalf("crash dir WALs: %v (err %v)", wals, err)
	}
	wal, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	img.trunc = int64(len(wal))
	return img
}
