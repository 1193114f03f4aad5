// Persistent store: the learned index surviving restarts and crashes.
//
// The paper's learned structures are trained in memory; this scenario runs
// them through the persistent storage engine (internal/storage behind
// learnedindex.OpenStore): every insert is framed into a write-ahead log,
// Sync is the fsync durability barrier, flushes turn the pending keys into
// immutable segment files that carry their trained RMI and Bloom filter in
// serialized form, and background compaction folds small segments into
// bigger ones. The payoff is the cold open: a restart deserializes the
// per-segment models and serves lookups immediately — zero retraining —
// and a simulated torn-WAL crash recovers exactly the acked keys.
//
// The run: ingest 1M keys in batches, restart cold and time the open, then
// tear the WAL mid-record and prove recovery keeps every synced key while
// truncating the torn tail.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"learnedindex"
	"learnedindex/internal/data"
)

func main() {
	dir, err := os.MkdirTemp("", "lix-persistent-*")
	check(err)
	defer os.RemoveAll(dir)

	const n = 1_000_000
	keys := data.LognormalPaper(n, 42)

	// Ingest in batches: WAL append -> Sync (durability ack) -> Flush
	// (segment file + WAL trim).
	start := time.Now()
	st, err := learnedindex.OpenStore(nil, learnedindex.Config{},
		learnedindex.StoreOptions{Dir: dir, MergeThreshold: 1 << 30})
	check(err)
	const batches = 6
	for b := 0; b < batches; b++ {
		for _, k := range keys[b*n/batches : (b+1)*n/batches] {
			st.Insert(k)
		}
		check(st.Sync())
		st.Flush()
	}
	stats, _ := st.StorageStats()
	fmt.Printf("ingested %d keys in %v: %d segment files, %.2f MB on disk, %d models trained\n",
		st.Len(), time.Since(start).Round(time.Millisecond),
		stats.Segments, float64(stats.DiskBytes)/(1<<20), stats.ModelsTrained)
	check(st.Close())

	// Cold open: deserialized models only. The huge thresholds keep the
	// background flusher and compactor quiet so the directory snapshot
	// below is not racing file creation/deletion.
	start = time.Now()
	cold, err := learnedindex.OpenStore(nil, learnedindex.Config{},
		learnedindex.StoreOptions{Dir: dir, MergeThreshold: 1 << 30, CompactFanout: 1 << 30})
	check(err)
	openTime := time.Since(start)
	cstats, _ := cold.StorageStats()
	fmt.Printf("cold open in %v: %d keys served from %d deserialized models, %d trained\n",
		openTime.Round(time.Microsecond), cold.Len(), cstats.ModelsLoaded, cstats.ModelsTrained)
	probes := data.SampleExisting(keys, 100_000, 7)
	start = time.Now()
	for _, p := range cold.LookupBatch(probes) {
		_ = p
	}
	fmt.Printf("100k batched lookups off the recovered segments in %v\n",
		time.Since(start).Round(time.Microsecond))

	// Crash simulation: sync two new batches (acked), append one more
	// without Sync, then tear the WAL mid-record and recover.
	acked := data.Dense(5_000, 1<<61, 3)
	for _, k := range acked {
		cold.Insert(k)
	}
	check(cold.Sync())
	for i := 0; i < 1000; i++ {
		cold.Insert(uint64(1)<<62 + uint64(i)) // never synced: fair game
	}
	// Copy the directory as a "crashed" image with the active WAL torn 3
	// bytes short — a partial write the checksum framing must truncate. The
	// log file is reserved ahead of its records, so the tear is measured
	// from where the records end (WALBytes), not from the end of the file.
	wstats, _ := cold.StorageStats()
	crash, err := os.MkdirTemp("", "lix-crash-*")
	check(err)
	defer os.RemoveAll(crash)
	ents, err := os.ReadDir(dir)
	check(err)
	active := "" // log names sort by sequence number: the last one is being written
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "wal-") {
			active = ent.Name()
		}
	}
	for _, ent := range ents {
		img, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		check(err)
		if ent.Name() == active {
			img = img[:max(0, min(int64(len(img)), wstats.WALBytes-3))]
		}
		check(os.WriteFile(filepath.Join(crash, ent.Name()), img, 0o644))
	}
	check(cold.Close())

	rec, err := learnedindex.OpenStore(nil, learnedindex.Config{},
		learnedindex.StoreOptions{Dir: crash})
	check(err)
	defer rec.Close()
	lost := 0
	for _, k := range acked {
		if !rec.Contains(k) {
			lost++
		}
	}
	fmt.Printf("\ncrash recovery: %d/%d acked keys survived the torn WAL (lost %d); Len %d\n",
		len(acked)-lost, len(acked), lost, rec.Len())
	if lost > 0 {
		fmt.Println("BUG: durability violated")
		os.Exit(1)
	}
	fmt.Println("every Sync-acknowledged key was recovered; the torn record was truncated, not invented")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "persistentstore:", err)
		os.Exit(1)
	}
}
