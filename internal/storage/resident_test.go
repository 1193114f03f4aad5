package storage

import (
	"path/filepath"
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/vfs"
)

// TestPendingPoolDoesNotPinBulkBuffers: two engines in one process, a bulk
// preload through the first, a flush of both. The preload's pending buffer
// must not come back out of the process-wide pool as either engine's next
// pending buffer — an engine holds that buffer until its next freeze, which
// on a quiet store is the rest of its life.
func TestPendingPoolDoesNotPinBulkBuffers(t *testing.T) {
	const bulk = 8 * maxPooledPending
	for _, strMode := range []bool{false, true} {
		opts := Options{NoCompactor: true, StringKeys: strMode}
		a, b := openT(t, t.TempDir(), opts), openT(t, t.TempDir(), opts)
		keys := dedupSorted(data.LognormalPaper(bulk, 71))
		appendTo := func(e *Engine, ks []uint64) {
			t.Helper()
			var err error
			if strMode {
				err = e.AppendStringBatch(strKeysOf(ks))
			} else {
				err = e.AppendBatch(ks)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		pendingCap := func(e *Engine) int {
			e.mu.Lock()
			defer e.mu.Unlock()
			return cap(e.pending) + cap(e.pendingS)
		}
		appendTo(a, keys)
		if pendingCap(a) < len(keys) {
			t.Fatalf("setup: bulk buffer holds %d of %d keys", pendingCap(a), len(keys))
		}
		// Three rounds: whatever the first flush returned to the pool has had
		// every chance to be handed to the next freeze of either engine.
		for round := 0; round < 3; round++ {
			appendTo(b, keys[round*10:round*10+10])
			for _, e := range []*Engine{a, b} {
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				if c := pendingCap(e); c > maxPooledPending {
					t.Fatalf("strings=%v round %d: engine holds a %d-key pending buffer after a flush (bound %d)",
						strMode, round, c, maxPooledPending)
				}
			}
			appendTo(a, keys[round*10:round*10+10])
		}
		a.Close()
		b.Close()
	}
}

// TestOpenStringSegmentAllocs: opening a v2 segment costs the same number
// of allocations whatever its key count — the file is read, the prefix
// array and the dictionary's arena are sized once each, and no key is ever
// a heap object of its own.
func TestOpenStringSegmentAllocs(t *testing.T) {
	openAllocs := func(n int) float64 {
		dir := t.TempDir()
		keys := stringTestKeys(n, int64(n))
		// A fixed model shape, so what could vary with n is the keys alone.
		seg, err := writeStringSegment(vfs.OS, nil, dir, 0, 0, keys, core.DefaultConfig(16), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, segmentFileName(0, 0))
		if seg.path != path {
			t.Fatalf("segment written to %s", seg.path)
		}
		return testing.AllocsPerRun(10, func() {
			s, err := openSegmentFile(vfs.OS, path, 0, 0)
			if err != nil || s.numKeys() != n {
				t.Fatalf("open: %v", err)
			}
		})
	}
	small, large := openAllocs(500), openAllocs(50_000)
	if large > small+2 || large > 64 {
		t.Fatalf("opening a v2 segment: %.0f allocations for 500 keys, %.0f for 50000", small, large)
	}
}
