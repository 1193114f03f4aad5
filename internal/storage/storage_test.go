package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/vfs"
)

func openT(t *testing.T, dir string, opts Options) *Engine {
	t.Helper()
	e, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e
}

// newWALT is newWAL on the real filesystem, for tests that write a log by
// hand; a reservation the filesystem refuses fails the test.
func newWALT(t testing.TB, path string) *wal {
	t.Helper()
	w, err := newWAL(vfs.OS, path, func(ctx string, err error) { t.Fatalf("%s: %v", ctx, err) })
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestEngineBasicLifecycle(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{})
	keys := data.LognormalPaper(20_000, 5)
	if err := e.Append(keys...); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 0 {
		t.Fatalf("unflushed keys already served: Len=%d", e.Len())
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Len() != len(keys) {
		t.Fatalf("Len=%d, want %d", e.Len(), len(keys))
	}
	if st := e.Stats(); st.WALBytes != 0 {
		t.Fatalf("WAL not trimmed after flush: %d bytes", st.WALBytes)
	}
	for _, k := range data.SampleExisting(keys, 3000, 6) {
		if !e.Contains(k) {
			t.Fatalf("lost key %d", k)
		}
	}
	for _, k := range data.SampleMissing(keys, 3000, 7) {
		if e.Contains(k) {
			t.Fatalf("invented key %d", k)
		}
	}
	// Lookup matches the lower bound over the merged key set.
	merged := e.Keys()
	probes := append(data.SampleExisting(keys, 500, 8), data.SampleMissing(keys, 500, 9)...)
	for _, k := range probes {
		want := data.Keys(merged).LowerBound(k)
		if got := e.Lookup(k); got != want {
			t.Fatalf("Lookup(%d)=%d, want %d", k, got, want)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineColdOpenDeserializesModels(t *testing.T) {
	dir := t.TempDir()
	keys := data.LognormalPaper(30_000, 9)
	e := openT(t, dir, Options{})
	e.Append(keys[:10_000]...)
	e.Flush()
	e.Append(keys[10_000:20_000]...)
	e.Flush()
	// The last third is only drained: Close spills the resident run, so the
	// cold open finds a file for it too and has no log to replay.
	e.Append(keys[20_000:]...)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openT(t, dir, Options{NoCompactor: true})
	defer e2.Close()
	st := e2.Stats()
	if st.ModelsTrained != 0 {
		t.Fatalf("cold open trained %d models, want 0", st.ModelsTrained)
	}
	if st.ModelsLoaded == 0 || st.Segments == 0 {
		t.Fatalf("cold open loaded nothing: %+v", st)
	}
	if e2.Len() != len(keys) {
		t.Fatalf("Len=%d, want %d", e2.Len(), len(keys))
	}
	for _, k := range data.SampleExisting(keys, 3000, 10) {
		if !e2.Contains(k) {
			t.Fatalf("cold open lost key %d", k)
		}
	}
	// Batch and per-key lookups agree on the deserialized models.
	probes := append(data.SampleExisting(keys, 1000, 11), data.SampleMissing(keys, 1000, 12)...)
	slices.Sort(probes)
	out := make([]int, len(probes))
	e2.LookupBatch(probes, out)
	for i, k := range probes {
		if want := e2.Lookup(k); out[i] != want {
			t.Fatalf("batch[%d] for key %d = %d, per-key %d", i, k, out[i], want)
		}
	}
}

func TestEngineSetSemanticsAcrossFlushes(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{NoCompactor: true})
	defer e.Close()
	keys := data.Uniform(5_000, 1_000_000, 3)
	e.Append(keys...)
	e.Flush()
	// Re-append the same keys plus a few novel ones: Len must count
	// distinct keys only (flush dedupes against older segments).
	novel := []uint64{2_000_001, 2_000_002, 2_000_003}
	e.Append(keys[:1000]...)
	e.Append(novel...)
	e.Flush()
	want := len(keys) + len(novel)
	if e.Len() != want {
		t.Fatalf("Len=%d, want %d", e.Len(), want)
	}
	// All-duplicate flush: no new segment, WAL still trimmed.
	before := e.Stats().Segments
	e.Append(keys[2000:3000]...)
	e.Flush()
	st := e.Stats()
	if st.Segments != before {
		t.Fatalf("duplicate-only flush created a segment (%d -> %d)", before, st.Segments)
	}
	if st.WALBytes != 0 {
		t.Fatalf("duplicate-only flush left %d WAL bytes", st.WALBytes)
	}
}

func TestEngineCompaction(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{NoCompactor: true, CompactFanout: 3})
	keys := data.LognormalPaper(24_000, 21)
	// Eight similar-sized flushes of interleaved key ranges.
	for i := 0; i < 8; i++ {
		var part []uint64
		for j := i; j < len(keys); j += 8 {
			part = append(part, keys[j])
		}
		e.Append(part...)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Segments; got != 8 {
		t.Fatalf("expected 8 segments before compaction, got %d", got)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	if st.Segments >= 8 {
		t.Fatalf("compaction did not shrink the segment count: %d", st.Segments)
	}
	if e.Len() != len(keys) {
		t.Fatalf("Len=%d after compaction, want %d", e.Len(), len(keys))
	}
	for _, k := range data.SampleExisting(keys, 2000, 22) {
		if !e.Contains(k) {
			t.Fatalf("compaction lost key %d", k)
		}
	}
	// Obsolete input files must be gone from disk.
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(files) != st.Segments {
		t.Fatalf("%d segment files on disk, %d live segments", len(files), st.Segments)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: same contents, no training.
	e2 := openT(t, dir, Options{NoCompactor: true})
	defer e2.Close()
	if e2.Len() != len(keys) || e2.Stats().ModelsTrained != 0 {
		t.Fatalf("post-compaction reopen broken: %+v", e2.Stats())
	}
}

// TestEngineCompactionWideRun compacts the widest run a fanout of 9 allows
// (2 x fanout = 18 inputs): the k-way merge must handle any input count.
func TestEngineCompactionWideRun(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{NoCompactor: true, CompactFanout: 9})
	defer e.Close()
	keys := data.Uniform(18_000, 1_000_000_000, 83)
	for i := 0; i < 18; i++ {
		e.Append(keys[i*1000 : (i+1)*1000]...)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Compactions == 0 || st.Segments >= 18 {
		t.Fatalf("wide run did not compact: %+v", st)
	}
	if e.Len() != len(keys) {
		t.Fatalf("Len=%d after wide compaction, want %d", e.Len(), len(keys))
	}
	for _, k := range data.SampleExisting(keys, 1000, 84) {
		if !e.Contains(k) {
			t.Fatalf("wide compaction lost key %d", k)
		}
	}
}

// TestEngineCrashedCompactionRecovery simulates a crash after the
// compacted segment was committed but before the inputs were deleted: the
// containment rule must garbage-collect the inputs at the next open.
func TestEngineCrashedCompactionRecovery(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{NoCompactor: true})
	keys := data.Uniform(9_000, 1_000_000_000, 31)
	for i := 0; i < 3; i++ {
		e.Append(keys[i*3000 : (i+1)*3000]...)
		e.Flush()
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-craft the "crash": write the merged segment covering [0,2] while
	// leaving the three inputs in place.
	merged := append([]uint64(nil), keys...)
	slices.Sort(merged)
	if _, err := writeSegment(vfs.OS, nil, dir, 0, 2, dedupSorted(merged), core.Config{}, 0.01); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(files) != 4 {
		t.Fatalf("setup expected 4 files, got %d", len(files))
	}
	e2 := openT(t, dir, Options{NoCompactor: true})
	defer e2.Close()
	if got := e2.Stats().Segments; got != 1 {
		t.Fatalf("containment GC kept %d segments, want 1", got)
	}
	if e2.Len() != len(dedupSorted(merged)) {
		t.Fatalf("Len=%d, want %d", e2.Len(), len(dedupSorted(merged)))
	}
	files, _ = filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(files) != 1 {
		t.Fatalf("obsolete inputs not deleted: %d files", len(files))
	}
}

func dedupSorted(ks []uint64) []uint64 {
	if len(ks) == 0 {
		return ks
	}
	out := ks[:1]
	for _, k := range ks[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// TestEngineConcurrentReadsDuringWrites drives appends/flushes/compactions
// while readers hammer Contains/Lookup/Len — the lock-free read plane must
// stay consistent under the race detector.
func TestEngineConcurrentReadsDuringWrites(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{CompactFanout: 2})
	defer e.Close()
	keys := data.Uniform(20_000, 1_000_000_000, 41)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[rng.Intn(len(keys))]
				e.Contains(k)
				e.Lookup(k)
				e.Len()
			}
		}(int64(g))
	}
	for i := 0; i < 20; i++ {
		e.Append(keys[i*1000 : (i+1)*1000]...)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 20_000 {
		t.Fatalf("Len=%d, want 20000", e.Len())
	}
}

// TestEngineRecoversMultipleWALs simulates a crash between a flush's
// freeze and retire steps: the frozen log (whose keys are already
// committed to a segment) and the active log both survive, and recovery
// must replay them in sequence order, deduplicating the materialized
// keys — Len stays exact, nothing is lost.
func TestEngineRecoversMultipleWALs(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{NoCompactor: true})
	segKeys := data.Uniform(3_000, 1_000_000, 61)
	e.Append(segKeys...)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-craft the crash image: a "frozen" log re-logging segment keys
	// (as if its retire step never ran) plus an "active" log with novel
	// keys.
	frozen := newWALT(t, filepath.Join(dir, walFileName(7)))
	if err := frozen.append(segKeys[:500]); err != nil {
		t.Fatal(err)
	}
	if err := frozen.sync(); err != nil {
		t.Fatal(err)
	}
	frozen.close()
	active := newWALT(t, filepath.Join(dir, walFileName(8)))
	novel := []uint64{5_000_001, 5_000_002, 5_000_003}
	if err := active.append(novel); err != nil {
		t.Fatal(err)
	}
	if err := active.sync(); err != nil {
		t.Fatal(err)
	}
	active.close()

	re := openT(t, dir, Options{NoCompactor: true})
	defer re.Close()
	if want := len(segKeys) + len(novel); re.Len() != want {
		t.Fatalf("Len=%d after multi-WAL recovery, want %d", re.Len(), want)
	}
	for _, k := range novel {
		if !re.Contains(k) {
			t.Fatalf("lost active-log key %d", k)
		}
	}
	// The replayed logs must be retired; exactly one fresh active log
	// remains, with a sequence past both replayed ones.
	seqs, paths, _, err := scanWALFiles(vfs.OS, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || seqs[0] < 9 {
		t.Fatalf("wal files after recovery: %v (seqs %v)", paths, seqs)
	}
}

// TestEngineQuarantinesCorruptSegment verifies that a bit-flipped
// committed segment is quarantined at Open — renamed *.quarantine, never
// served, never re-adopted — rather than serving wrong answers or
// blocking the whole store.
func TestEngineQuarantinesCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{NoCompactor: true})
	e.Append(data.Uniform(2_000, 1_000_000, 51)...)
	e.Flush()
	e.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if len(files) != 1 {
		t.Fatalf("want 1 segment, got %d", len(files))
	}
	img, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x40
	if err := os.WriteFile(files[0], img, 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, Options{NoCompactor: true})
	if err != nil {
		t.Fatalf("Open over a corrupt segment: %v (want quarantine, not failure)", err)
	}
	defer e2.Close()
	if got := e2.Len(); got != 0 {
		t.Fatalf("Len = %d after quarantining the only segment, want 0", got)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg.quarantine")); len(q) != 1 {
		t.Fatalf("want 1 quarantined file, got %v", q)
	}
	if live, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg")); len(live) != 0 {
		t.Fatalf("corrupt segment still live: %v", live)
	}
}

// TestWALReservesExtents: a log is reserved one extent ahead of its frames —
// the file is a whole number of extents long while lix_storage_wal_bytes and
// Stats.WALBytes keep reporting the frame bytes — a record that does not fit
// the reservation extends it first, and a crash image of the file, reserved
// zero tail and all, recovers every synced key. Off Linux nothing is
// reserved and only the recovery half applies.
func TestWALReservesExtents(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{NoCompactor: true})
	defer e.Close()
	fileSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(e.wal.path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	reserves := runtime.GOOS == "linux"
	if got := fileSize(); reserves && got != walExtent {
		t.Fatalf("fresh log is %d bytes, want one %d-byte extent", got, walExtent)
	}
	if err := e.Commit(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(); reserves && got != walExtent {
		t.Fatalf("log is %d bytes after a commit inside the extent, want %d", got, walExtent)
	}
	// One record of 9-byte varints, long enough to cross into a third extent.
	long := make([]uint64, 2*walExtent/9)
	for i := range long {
		long[i] = 1<<63 + uint64(i)
	}
	if err := e.AppendBatch(long); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	frames := e.Stats().WALBytes
	if frames <= 2*walExtent || frames != e.wal.size || float64(frames) != e.Metrics().Gauge("lix_storage_wal_bytes") {
		t.Fatalf("WALBytes=%d, wal.size=%d, gauge=%v: want the frame bytes, past two extents", frames, e.wal.size, e.Metrics().Gauge("lix_storage_wal_bytes"))
	}
	if got := fileSize(); reserves && got != 3*walExtent {
		t.Fatalf("log is %d bytes behind %d frame bytes, want three extents", got, frames)
	}

	crashDir := t.TempDir()
	img, err := os.ReadFile(e.wal.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashDir, filepath.Base(e.wal.path)), img, 0o644); err != nil {
		t.Fatal(err)
	}
	re := openT(t, crashDir, Options{NoCompactor: true})
	defer re.Close()
	if want := 3 + len(long); re.Len() != want || !re.Contains(2) || !re.Contains(long[len(long)-1]) {
		t.Fatalf("crash image with its reserved tail recovered %d keys, want %d", re.Len(), want)
	}
}
