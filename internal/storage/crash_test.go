package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"learnedindex/internal/vfs"
)

// TestCrashRecoveryRandomTruncation is the randomized durability oracle,
// in the set-semantics style of core's delta_oracle_test: drive the engine
// with batches of fresh, duplicate, and re-inserted keys, interleave Sync,
// Drain and Flush at random (a Drain serves what was appended, which makes
// it an ack, and leaves the log as it is: the crash copy is then taken
// somewhere between a drain and the next spill), then simulate a crash by
// copying the directory with
// the WAL truncated at a random byte offset at or past the last fsync
// (bytes before the fsync ack cannot be lost; everything after it is fair
// game for tearing). Reopening the copy must serve exactly the oracle set:
// every flushed key, plus every key whose WAL record survived the
// truncation whole — acked keys are never lost, torn records never
// surface, and Len is exact.
func TestCrashRecoveryRandomTruncation(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(1000 + int64(trial)))
			dir := t.TempDir()
			// Compaction runs synchronously (below) so the dir copy is not
			// racing a background merge; its crash-safety is covered by
			// TestEngineCrashedCompactionRecovery.
			e, err := Open(dir, Options{NoCompactor: true, CompactFanout: 3})
			if err != nil {
				t.Fatal(err)
			}

			flushed := map[uint64]bool{} // keys durable in segments
			synced := map[uint64]bool{}  // keys acked by Sync (superset incl. flushed)
			var syncedOff int64          // WAL offset covered by the last fsync ack
			// walRecords tracks (endOffset, keys) per record since the last
			// flush — the oracle for which tail keys survive a truncation.
			type rec struct {
				end  int64
				keys []uint64
			}
			var walRecords []rec

			steps := 30 + rng.Intn(40)
			drains := 0
			var inserted []uint64
			for i := 0; i < steps; i++ {
				n := 1 + rng.Intn(50)
				batch := make([]uint64, 0, n)
				for j := 0; j < n; j++ {
					switch rng.Intn(4) {
					case 0: // duplicate of an earlier insert
						if len(inserted) > 0 {
							batch = append(batch, inserted[rng.Intn(len(inserted))])
							continue
						}
						fallthrough
					default: // fresh key, bounded domain so overlaps happen too
						batch = append(batch, uint64(rng.Int63n(1_000_000_000)))
					}
				}
				inserted = append(inserted, batch...)
				if err := e.Append(batch...); err != nil {
					t.Fatal(err)
				}
				walRecords = append(walRecords, rec{end: e.wal.size, keys: batch})

				switch rng.Intn(5) {
				case 0, 1: // Sync: ack everything appended so far
					if err := e.Sync(); err != nil {
						t.Fatal(err)
					}
					syncedOff = e.wal.size
					for _, r := range walRecords {
						for _, k := range r.keys {
							synced[k] = true
						}
					}
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
					for _, r := range walRecords {
						for _, k := range r.keys {
							synced[k] = true
							if !e.Contains(k) {
								t.Fatalf("key %d not served after a drain", k)
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
			for _, r := range walRecords {
				for _, k := range r.keys {
					synced[k] = true
				}
			}
			// A little unsynced tail beyond the last ack, eligible to tear.
			tail := make([]uint64, 3+rng.Intn(20))
			for j := range tail {
				tail[j] = 2_000_000_000 + uint64(rng.Int63n(1_000_000))
			}
			if err := e.Append(tail...); err != nil {
				t.Fatal(err)
			}
			walRecords = append(walRecords, rec{end: e.wal.size, keys: tail})
			// Push the tail to the OS (no fsync): a crash may keep any prefix.
			if err := e.wal.w.Flush(); err != nil {
				t.Fatal(err)
			}
			walSize := e.wal.size

			// Crash copy: segments verbatim, WAL truncated at a random point
			// in [syncedOff, walSize].
			crashDir := t.TempDir()
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				src := filepath.Join(dir, ent.Name())
				data, err := os.ReadFile(src)
				if err != nil {
					t.Fatal(err)
				}
				// Single-threaded run: exactly one (active) log file exists.
				if _, isWAL := parseWALFileName(ent.Name()); isWAL {
					trunc := syncedOff + rng.Int63n(walSize-syncedOff+1)
					data = data[:trunc]
				}
				if err := os.WriteFile(filepath.Join(crashDir, ent.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, crashWALs, _, err := scanWALFiles(vfs.OS, crashDir, false)
			if err != nil || len(crashWALs) != 1 {
				t.Fatalf("crash dir WALs: %v (err %v)", crashWALs, err)
			}
			crashWAL, err := os.ReadFile(crashWALs[0])
			if err != nil {
				t.Fatal(err)
			}
			trunc := int64(len(crashWAL))
			if trunc < syncedOff {
				t.Fatalf("truncation %d cut below the fsync ack %d", trunc, syncedOff)
			}
			e.Close()

			// Oracle: flushed keys plus every record fully within the cut.
			expected := map[uint64]bool{}
			for k := range flushed {
				expected[k] = true
			}
			for _, r := range walRecords {
				if r.end <= trunc {
					for _, k := range r.keys {
						expected[k] = true
					}
				}
			}

			re, err := Open(crashDir, Options{NoCompactor: true})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer re.Close()

			// Every acked key is served.
			for k := range synced {
				if !re.Contains(k) {
					t.Fatalf("acked key %d lost after crash recovery", k)
				}
			}
			// Exactly the oracle set is served: Len is exact, membership
			// matches, and no torn-record key was invented.
			if re.Len() != len(expected) {
				t.Fatalf("Len=%d after recovery, oracle %d", re.Len(), len(expected))
			}
			for _, k := range re.Keys() {
				if !expected[k] {
					t.Fatalf("recovery invented key %d", k)
				}
			}
			for k := range expected {
				if !re.Contains(k) {
					t.Fatalf("recoverable key %d not served", k)
				}
			}
			// Probes from a disjoint domain must miss.
			for i := 0; i < 500; i++ {
				k := 3_000_000_000 + uint64(rng.Int63n(1_000_000_000))
				if re.Contains(k) {
					t.Fatalf("phantom key %d", k)
				}
			}
		})
	}
}

// TestCrashRecoveryRandomTruncationStrings is the string-mode twin of the
// oracle above: the same drive/truncate/reopen protocol over wals-*.log
// files and version-2 segments. Key identity, record framing, and the
// fsync ack line all run through the codec path, so the oracle holds the
// string engine to the identical durability contract: acked keys never
// lost, torn records never surface, Len exact.
func TestCrashRecoveryRandomTruncationStrings(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(4000 + int64(trial)))
			dir := t.TempDir()
			e, err := Open(dir, Options{NoCompactor: true, CompactFanout: 3, StringKeys: true})
			if err != nil {
				t.Fatal(err)
			}
			key := func(n int64) string { return fmt.Sprintf("k%010d", n) }

			flushed := map[string]bool{}
			synced := map[string]bool{}
			var syncedOff int64
			type rec struct {
				end  int64
				keys []string
			}
			var walRecords []rec

			steps := 25 + rng.Intn(30)
			drains := 0
			var inserted []string
			for i := 0; i < steps; i++ {
				n := 1 + rng.Intn(40)
				batch := make([]string, 0, n)
				for j := 0; j < n; j++ {
					switch rng.Intn(4) {
					case 0:
						if len(inserted) > 0 {
							batch = append(batch, inserted[rng.Intn(len(inserted))])
							continue
						}
						fallthrough
					default:
						batch = append(batch, key(rng.Int63n(1_000_000_000)))
					}
				}
				inserted = append(inserted, batch...)
				if err := e.AppendString(batch...); err != nil {
					t.Fatal(err)
				}
				walRecords = append(walRecords, rec{end: e.wal.size, keys: batch})

				switch rng.Intn(5) {
				case 0, 1:
					if err := e.Sync(); err != nil {
						t.Fatal(err)
					}
					syncedOff = e.wal.size
					for _, r := range walRecords {
						for _, k := range r.keys {
							synced[k] = true
						}
					}
				case 2:
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
				case 3:
					if err := e.Drain(); err != nil {
						t.Fatal(err)
					}
					drains++
					if e.wal.size == 0 {
						t.Fatal("a drain trimmed the log")
					}
					syncedOff = e.wal.size
					for _, r := range walRecords {
						for _, k := range r.keys {
							synced[k] = true
							if !e.ContainsString(k) {
								t.Fatalf("key %q not served after a drain", k)
							}
						}
					}
				}
			}
			if drains == 0 {
				t.Fatal("the trial never drained")
			}
			if err := e.Sync(); err != nil {
				t.Fatal(err)
			}
			syncedOff = e.wal.size
			for _, r := range walRecords {
				for _, k := range r.keys {
					synced[k] = true
				}
			}
			// Unsynced tail from a disjoint key domain, eligible to tear.
			tail := make([]string, 3+rng.Intn(15))
			for j := range tail {
				tail[j] = key(2_000_000_000 + rng.Int63n(1_000_000))
			}
			if err := e.AppendString(tail...); err != nil {
				t.Fatal(err)
			}
			walRecords = append(walRecords, rec{end: e.wal.size, keys: tail})
			if err := e.wal.w.Flush(); err != nil {
				t.Fatal(err)
			}
			walSize := e.wal.size

			crashDir := t.TempDir()
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if _, isWAL := parseWALStrFileName(ent.Name()); isWAL {
					trunc := syncedOff + rng.Int63n(walSize-syncedOff+1)
					data = data[:trunc]
				}
				if err := os.WriteFile(filepath.Join(crashDir, ent.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, crashWALs, _, err := scanWALFiles(vfs.OS, crashDir, true)
			if err != nil || len(crashWALs) != 1 {
				t.Fatalf("crash dir WALs: %v (err %v)", crashWALs, err)
			}
			crashWAL, err := os.ReadFile(crashWALs[0])
			if err != nil {
				t.Fatal(err)
			}
			trunc := int64(len(crashWAL))
			if trunc < syncedOff {
				t.Fatalf("truncation %d cut below the fsync ack %d", trunc, syncedOff)
			}
			e.Close()

			expected := map[string]bool{}
			for k := range flushed {
				expected[k] = true
			}
			for _, r := range walRecords {
				if r.end <= trunc {
					for _, k := range r.keys {
						expected[k] = true
					}
				}
			}

			re, err := Open(crashDir, Options{NoCompactor: true, StringKeys: true})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer re.Close()

			for k := range synced {
				if !re.ContainsString(k) {
					t.Fatalf("acked key %q lost after crash recovery", k)
				}
			}
			if re.Len() != len(expected) {
				t.Fatalf("Len=%d after recovery, oracle %d", re.Len(), len(expected))
			}
			for _, k := range re.KeysStrings() {
				if !expected[k] {
					t.Fatalf("recovery invented key %q", k)
				}
			}
			for k := range expected {
				if !re.ContainsString(k) {
					t.Fatalf("recoverable key %q not served", k)
				}
			}
			for i := 0; i < 300; i++ {
				k := key(3_000_000_000 + rng.Int63n(1_000_000_000))
				if re.ContainsString(k) {
					t.Fatalf("phantom key %q", k)
				}
			}
		})
	}
}
