package storage

import (
	"cmp"
	"testing"
)

// TestWrongKeyModePanics: every typed entry point of the Engine, and every
// operation the engine runs on a snapshot, panics when called on an engine
// of the other key mode — none answers by reading the other kind's
// segments as its own (a uint64 range count on a string engine once
// counted its prefixes). The snapshot entries keep the names of the
// exported Snapshot methods they once called: the snapshot is unexported
// now, and each of its operations takes its key ops from planeOf, as the
// engine's own Scan and CountRange do.
func TestWrongKeyModePanics(t *testing.T) {
	eu := openT(t, t.TempDir(), Options{NoCompactor: true})
	defer eu.Close()
	es := openT(t, t.TempDir(), Options{NoCompactor: true, StringKeys: true})
	defer es.Close()
	for _, e := range []modeEngine{{eu, false}, {es, true}} {
		if err := e.append(1, 2, 3); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := e.append(4); err != nil {
			t.Fatal(err)
		}
	}
	u64Calls := map[string]func(e *Engine) func(){
		"Append":        func(e *Engine) func() { return func() { e.Append(5) } },
		"AppendBatch":   func(e *Engine) func() { return func() { e.AppendBatch([]uint64{5}) } },
		"Commit":        func(e *Engine) func() { return func() { e.Commit(5) } },
		"CommitBatch":   func(e *Engine) func() { return func() { e.CommitBatch([]uint64{5}) } },
		"BulkLoad":      func(e *Engine) func() { return func() { e.BulkLoad([]uint64{5}) } },
		"Contains":      func(e *Engine) func() { return func() { e.Contains(1) } },
		"ContainsBatch": func(e *Engine) func() { return func() { e.ContainsBatch([]uint64{1}, make([]bool, 1)) } },
		"Lookup":        func(e *Engine) func() { return func() { e.Lookup(1) } },
		"LookupBatch":   func(e *Engine) func() { return func() { e.LookupBatch([]uint64{1}, make([]int, 1)) } },
		"Keys":          func(e *Engine) func() { return func() { e.Keys() } },
		"ReplSnapshot":  func(e *Engine) func() { return func() { e.ReplSnapshot() } },
		"CountRange":    func(e *Engine) func() { return func() { e.CountRange(0, ^uint64(0), true) } },
		"Scan":          func(e *Engine) func() { return func() { e.Scan(0, 9, true).Close() } },

		"AcquireSnapshot":      func(e *Engine) func() { return func() { pinAll[uint64](e).release() } },
		"AcquireSnapshotRange": func(e *Engine) func() { return func() { acquireSnapshot(planeOf[uint64](e), 0, 9, true).release() } },
		"Snapshot.Contains": func(e *Engine) func() {
			return withSnap(e, func(sn *snapshot, ops *keyOps[uint64]) { containsBatchIn(sn.segs, ops, []uint64{1}, nil) })
		},
		"Snapshot.CountRange": func(e *Engine) func() {
			return withSnap(e, func(sn *snapshot, ops *keyOps[uint64]) { countRange(sn, ops, 0, 9, true) })
		},
		"Snapshot.Pending": func(e *Engine) func() {
			return withSnap(e, func(sn *snapshot, ops *keyOps[uint64]) { _ = *ops.delta(sn) })
		},
		"Snapshot.SegmentKeys": func(e *Engine) func() {
			return withSnap(e, func(sn *snapshot, ops *keyOps[uint64]) { drainSnapshot(sn, ops, 0, 9, true) })
		},
	}
	strCalls := map[string]func(e *Engine) func(){
		"AppendString":        func(e *Engine) func() { return func() { e.AppendString("x") } },
		"AppendStringBatch":   func(e *Engine) func() { return func() { e.AppendStringBatch([]string{"x"}) } },
		"CommitString":        func(e *Engine) func() { return func() { e.CommitString("x") } },
		"CommitStringBatch":   func(e *Engine) func() { return func() { e.CommitStringBatch([]string{"x"}) } },
		"BulkLoadStrings":     func(e *Engine) func() { return func() { e.BulkLoadStrings([]string{"x"}) } },
		"ContainsString":      func(e *Engine) func() { return func() { e.ContainsString("x") } },
		"ContainsBatchString": func(e *Engine) func() { return func() { e.ContainsBatchString([]string{"x"}, make([]bool, 1)) } },
		"LookupString":        func(e *Engine) func() { return func() { e.LookupString("x") } },
		"LookupBatchString":   func(e *Engine) func() { return func() { e.LookupBatchString([]string{"x"}, make([]int, 1)) } },
		"KeysStrings":         func(e *Engine) func() { return func() { e.KeysStrings() } },
		"ReplSnapshotStrings": func(e *Engine) func() { return func() { e.ReplSnapshotStrings() } },
		"CountRangeStr":       func(e *Engine) func() { return func() { e.CountRangeStr("", "", false) } },
		"ScanString":          func(e *Engine) func() { return func() { e.ScanString("", "", false).Close() } },

		"AcquireSnapshotRangeStr": func(e *Engine) func() {
			return func() { acquireSnapshot(planeOf[string](e), "", "", false).release() }
		},
		"Snapshot.CountRangeStr": func(e *Engine) func() {
			return withSnap(e, func(sn *snapshot, ops *keyOps[string]) { countRange(sn, ops, "", "", false) })
		},
		"Snapshot.PendingStrings": func(e *Engine) func() {
			return withSnap(e, func(sn *snapshot, ops *keyOps[string]) { _ = *ops.delta(sn) })
		},
		"Snapshot.SegmentStrings": func(e *Engine) func() {
			return withSnap(e, func(sn *snapshot, ops *keyOps[string]) { drainSnapshot(sn, ops, "", "", false) })
		},
	}
	for _, c := range []struct {
		mode  string
		calls map[string]func(*Engine) func()
		wrong *Engine
	}{{"uint64", u64Calls, es}, {"string", strCalls, eu}} {
		for name, call := range c.calls {
			t.Run(c.mode+"/"+name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s on a %s engine did not panic", name, modeName(c.wrong.StringKeys()))
					}
				}()
				call(c.wrong)()
			})
		}
	}
	// The wrong-mode calls changed nothing: both engines still take their
	// own mode's writes and serve their own keys.
	for _, e := range []modeEngine{{eu, false}, {es, true}} {
		if err := e.commit(6); err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{1, 2, 3, 4, 6} {
			if !e.has(k) {
				t.Fatalf("strings=%v: key %d not served after the wrong-mode calls", e.str, k)
			}
		}
	}
}

// withSnap returns a call that pins a whole-range snapshot of e's K-keyed
// plane and runs f on it with that plane's key ops.
func withSnap[K cmp.Ordered](e *Engine, f func(sn *snapshot, ops *keyOps[K])) func() {
	return func() {
		ops := planeOf[K](e).ops
		sn := pinAll[K](e)
		defer sn.release()
		f(sn, ops)
	}
}
