package storage

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"learnedindex/internal/data"
	"learnedindex/internal/obs"
	"learnedindex/internal/vfs"
)

// bulkLoadT bulk-loads keys into e in its key mode (strings by strKeysOf).
func bulkLoadT(e *Engine, keys []uint64) error {
	if e.StringKeys() {
		return e.BulkLoadStrings(strKeysOf(keys))
	}
	return e.BulkLoad(keys)
}

// servedT returns every key e serves, as strKeysOf strings in either mode.
func servedT(e *Engine) []string {
	if e.StringKeys() {
		return e.KeysStrings()
	}
	return strKeysOf(e.Keys())
}

// modes runs f once per key mode, as a subtest.
func modes(t *testing.T, f func(t *testing.T, str bool)) {
	for _, str := range []bool{false, true} {
		t.Run(map[bool]string{false: "uint64", true: "string"}[str], func(t *testing.T) { f(t, str) })
	}
}

// TestBulkLoadCrashAtEveryOp cuts a preloading open — Open, then BulkLoad,
// what serve.Open does — after every filesystem operation it performs and
// reopens each crash image: the image serves none of the preloaded keys or
// all of them, never part of a segment, and the reopen leaves no temp file
// and exactly one log behind.
func TestBulkLoadCrashAtEveryOp(t *testing.T) {
	modes(t, func(t *testing.T, str bool) {
		keys := dedupSorted(data.LognormalPaper(3000, 21))
		want := strKeysOf(keys)
		dir := t.TempDir()
		cfs := newCrashFS(t)
		ffs := vfs.NewFaultFS(cfs, vfs.FaultConfig{})
		rng := rand.New(rand.NewSource(5))
		var images []string
		cut := func() {
			img := t.TempDir()
			if err := cfs.crashCopy(dir, img, rng); err != nil {
				t.Fatal(err)
			}
			images = append(images, img)
		}
		ffs.SetHook(func(vfs.Op, string) error { cut(); return nil })
		e := openT(t, dir, Options{FS: ffs, NoCompactor: true, StringKeys: str})
		if err := bulkLoadT(e, keys); err != nil {
			t.Fatal(err)
		}
		ffs.SetHook(nil)
		cut()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}

		all := 0
		for i, img := range images {
			re := openT(t, img, Options{NoCompactor: true, StringKeys: str})
			switch got := servedT(re); {
			case len(got) == 0:
			case slices.Equal(got, want):
				all++
			default:
				t.Fatalf("image %d of %d serves %d keys of the %d preloaded", i, len(images), len(got), len(want))
			}
			if re.Len() != len(servedT(re)) {
				t.Fatalf("image %d: Len %d", i, re.Len())
			}
			ents, err := os.ReadDir(img)
			if err != nil {
				t.Fatal(err)
			}
			logs := 0
			for _, ent := range ents {
				if strings.HasSuffix(ent.Name(), ".tmp") {
					t.Fatalf("image %d: %s survived the reopen", i, ent.Name())
				}
				if strings.HasPrefix(ent.Name(), "wal") {
					logs++
				}
			}
			if logs != 1 {
				t.Fatalf("image %d: %d logs after the reopen, want the active one", i, logs)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// Some cut falls before the segment's rename and the last after it.
		if all == 0 || all == len(images) {
			t.Fatalf("%d of %d images serve the preload", all, len(images))
		}
	})
}

// TestBulkLoadCommitFaultLeavesNothing: an ENOSPC on the segment's write or
// an EIO on its fsync fails the bulk load — the engine degrades, as after a
// failed Flush — and publishes nothing; a reopen of the directory serves
// none of the keys and takes the same bulk load.
func TestBulkLoadCommitFaultLeavesNothing(t *testing.T) {
	modes(t, func(t *testing.T, str bool) {
		keys := dedupSorted(data.LognormalPaper(2000, 22))
		for _, fault := range []struct {
			op    vfs.Op
			cause error
		}{{vfs.OpWrite, syscall.ENOSPC}, {vfs.OpSync, errors.New("EIO")}} {
			fault := fault
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
			ffs.SetHook(func(op vfs.Op, path string) error {
				if op == fault.op && strings.HasSuffix(path, ".tmp") {
					return fault.cause
				}
				return nil
			})
			e := openT(t, dir, Options{FS: ffs, NoCompactor: true, StringKeys: str})
			if err := bulkLoadT(e, keys); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("%v fault: bulk load returned %v", fault.op, err)
			}
			if h, _ := e.Health(); h != HealthDegraded || e.Len() != 0 {
				t.Fatalf("%v fault: health %v, %d keys served", fault.op, h, e.Len())
			}
			e.Close()
			re := openT(t, dir, Options{NoCompactor: true, StringKeys: str})
			if re.Len() != 0 {
				t.Fatalf("%v fault: the reopen serves %d keys of a failed bulk load", fault.op, re.Len())
			}
			if err := bulkLoadT(re, keys); err != nil || re.Len() != len(keys) {
				t.Fatalf("%v fault: bulk load after the reopen: %v, Len %d", fault.op, err, re.Len())
			}
			re.Close()
		}
	})
}

// TestBulkLoadOverDurableKeysIsExact: a directory holding a segment and a
// log (keys synced, never flushed) reopens and takes a preload that
// overlaps both; segments stay disjoint, so Len is exactly the union.
func TestBulkLoadOverDurableKeysIsExact(t *testing.T) {
	modes(t, func(t *testing.T, str bool) {
		keys := dedupSorted(data.LognormalPaper(6000, 23))
		a, b := keys[:3000], keys[2000:4000]
		preload := append(slices.Clone(keys[1000:2500]), keys[3500:]...)
		dir := t.TempDir()
		e := openT(t, dir, Options{NoCompactor: true, StringKeys: str})
		if err := bulkLoadT(e, a); err != nil {
			t.Fatal(err)
		}
		var err error
		if str {
			err = e.AppendString(strKeysOf(b)...)
		} else {
			err = e.Append(b...)
		}
		if err == nil {
			err = e.Sync()
		}
		if err != nil {
			t.Fatal(err)
		}
		// The crash copy: the segment and the synced log, as they are now.
		crashDir := t.TempDir()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			img, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err == nil {
				err = os.WriteFile(filepath.Join(crashDir, ent.Name()), img, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		e.Close()

		re := openT(t, crashDir, Options{NoCompactor: true, StringKeys: str})
		defer re.Close()
		if err := bulkLoadT(re, preload); err != nil {
			t.Fatal(err)
		}
		if got := servedT(re); re.Len() != len(keys) || !slices.Equal(got, strKeysOf(keys)) {
			t.Fatalf("Len %d, %d keys served, want the %d of the union", re.Len(), len(got), len(keys))
		}
		if st := re.Stats(); st.Segments != 3 {
			t.Fatalf("%d segments, want the preload's, the replay's and the bulk load's", st.Segments)
		}
	})
}

// TestBulkLoadRefusesUnspilledKeys: a bulk load publishes its segment at
// the tail of the list, so it is refused while keys wait to be spilled —
// pending, or drained into the resident run — and while a replication sink
// would miss its keys; after a Flush it goes through.
func TestBulkLoadRefusesUnspilledKeys(t *testing.T) {
	modes(t, func(t *testing.T, str bool) {
		e := openT(t, t.TempDir(), Options{NoCompactor: true, StringKeys: str})
		defer e.Close()
		var err error
		if str {
			err = e.CommitString(strKeysOf([]uint64{1, 2, 3})...)
		} else {
			err = e.Commit(1, 2, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := bulkLoadT(e, []uint64{10, 11}); err == nil {
			t.Fatal("bulk load accepted with pending keys")
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := bulkLoadT(e, []uint64{10, 11}); err == nil {
			t.Fatal("bulk load accepted beside a resident run")
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		e.SetReplSink(func([]ReplFrame) {})
		if err := bulkLoadT(e, []uint64{10, 11}); err == nil {
			t.Fatal("bulk load accepted with a replication sink installed")
		}
		e.SetReplSink(nil)
		if err := bulkLoadT(e, []uint64{3, 10, 11}); err != nil {
			t.Fatal(err)
		}
		if e.Len() != 5 || e.Stats().Segments != 2 {
			t.Fatalf("Len %d over %d segments, want 5 over 2", e.Len(), e.Stats().Segments)
		}
	})
}

// TestEngineMetricsBulkLoad: a bulk load writes a segment file, so it counts
// as a flush — lix_storage_flushes_total and lix_storage_flush_ns — trains
// one model, publishes its model-health series and leaves the log empty.
func TestEngineMetricsBulkLoad(t *testing.T) {
	modes(t, func(t *testing.T, str bool) {
		reg := obs.NewRegistry()
		e := openT(t, t.TempDir(), Options{NoCompactor: true, StringKeys: str, Reg: reg})
		defer e.Close()
		if err := bulkLoadT(e, dedupSorted(data.LognormalPaper(5000, 24))); err != nil {
			t.Fatal(err)
		}
		st, s := e.Stats(), e.Metrics()
		if st.WALBytes != 0 || st.PendingKeys != 0 {
			t.Fatalf("WALBytes %d, %d pending after a bulk load", st.WALBytes, st.PendingKeys)
		}
		if got := s.Counter("lix_storage_flushes_total"); got != 1 || st.Flushes != 1 || st.Drains != 0 {
			t.Fatalf("flushes metric %d, Stats %d flushes and %d drains, want one flush", got, st.Flushes, st.Drains)
		}
		if st.ModelsTrained != 1 || st.Segments != 1 || st.DiskBytes == 0 {
			t.Fatalf("%d models trained, %d segments, %d bytes on disk", st.ModelsTrained, st.Segments, st.DiskBytes)
		}
		// Model health is published per segment in both key modes: a string
		// segment's prefix plan is a plan like any other.
		for _, base := range []string{"lix_segment_model_err", "lix_segment_search_window", "lix_segment_trained_err_bound"} {
			if got := s.Series(base); len(got) != st.Segments {
				t.Fatalf("%s series %v, want one per segment (%d)", base, got, st.Segments)
			}
		}
		if obs.Enabled {
			if h := s.Histogram("lix_storage_flush_ns"); h.Count != 1 {
				t.Fatalf("flush duration histogram %d entries, want 1", h.Count)
			}
		}
	})
}
