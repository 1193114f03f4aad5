package repl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"learnedindex/internal/storage"
	"learnedindex/internal/vfs"
)

// TestFollowerStateUsesEngineFS: the follower keeps repl-state on the
// filesystem its engine was opened on, so the engine's FS sees the state
// file's temp write, its fsync and the rename that commits it.
func TestFollowerStateUsesEngineFS(t *testing.T) {
	type op struct {
		op   vfs.Op
		name string
	}
	var mu sync.Mutex
	var seen []op
	rec := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
	rec.SetHook(func(o vfs.Op, path string) error {
		mu.Lock()
		seen = append(seen, op{o, filepath.Base(path)})
		mu.Unlock()
		return nil
	})
	eng, err := storage.Open(t.TempDir(), storage.Options{FS: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	fol, err := NewFollower(eng, fastFollowerOpts("nowhere", NewMemTransport()))
	if err != nil {
		t.Fatal(err)
	}
	if err := fol.Close(); err != nil { // saves the state
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []op{
		{vfs.OpReadFile, replStateName},
		{vfs.OpWrite, replStateName + ".tmp"},
		{vfs.OpSync, replStateName + ".tmp"},
		{vfs.OpRename, replStateName + ".tmp"},
	} {
		if !slices.Contains(seen, want) {
			t.Fatalf("the engine's FS never saw %v on %s; saw %v", want.op, want.name, seen)
		}
	}
}

// TestFollowerStateRenameFault: when the engine's FS fails the rename that
// commits a new repl-state, the old state survives whole, and a follower
// reopened from that directory serves exactly the keys it durably applied,
// then catches up from the old state's horizon without a loss or a
// duplicate.
func TestFollowerStateRenameFault(t *testing.T) {
	tr := NewMemTransport()
	peng := openEngine(t, false)
	defer peng.Close()
	p, err := NewPrimary(peng, fastPrimaryOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Serve(tr, "prim"); err != nil {
		t.Fatal(err)
	}
	var want []uint64
	commit := func(lo, hi uint64) {
		t.Helper()
		for k := lo; k < hi; k++ {
			if err := peng.CommitBatch([]uint64{k * 7}); err != nil {
				t.Fatal(err)
			}
			want = append(want, k*7)
		}
	}
	follow := func(eng *storage.Engine) *Follower {
		t.Helper()
		fol, err := NewFollower(eng, fastFollowerOpts("prim", tr))
		if err != nil {
			t.Fatal(err)
		}
		fol.Start()
		waitFor(t, "follower caught up", func() bool { return fol.AppliedSeq() >= peng.ReplDurableSeq() })
		return fol
	}

	fdir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
	feng, err := storage.Open(fdir, storage.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	commit(0, 20)
	fol := follow(feng)
	fol.Close()
	statePath := filepath.Join(fdir, replStateName)
	old, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	oldApplied := fol.AppliedSeq()

	// Every later state commit fails at its rename.
	ffs.SetHook(func(op vfs.Op, path string) error {
		if op == vfs.OpRename && filepath.Base(path) == replStateName+".tmp" {
			return errors.New("rename refused")
		}
		return nil
	})
	fol = follow(feng)
	commit(20, 50)
	waitFor(t, "follower caught up again", func() bool { return fol.AppliedSeq() >= peng.ReplDurableSeq() })
	fol.Close()
	if ffs.InjectedFor(vfs.OpRename) == 0 {
		t.Fatal("no state commit reached the rename")
	}
	if got, err := os.ReadFile(statePath); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("after failed renames repl-state is %x (%v), want the old %x", got, err, old)
	}
	if _, err := os.Stat(statePath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("a failed rename left its temp behind: %v", err)
	}
	if err := feng.Close(); err != nil {
		t.Fatal(err)
	}

	feng, err = storage.Open(fdir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer feng.Close()
	slices.Sort(want)
	if got := feng.Keys(); !slices.Equal(got, want) {
		t.Fatalf("reopened follower serves %d keys, want exactly the %d it applied", len(got), len(want))
	}
	fol, err = NewFollower(feng, fastFollowerOpts("prim", tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if got := fol.AppliedSeq(); got != oldApplied {
		t.Fatalf("reopened follower starts at frame %d, want the old state's %d", got, oldApplied)
	}
	fol.Start()
	commit(50, 60)
	waitFor(t, "catch-up from the old horizon", func() bool { return fol.AppliedSeq() >= peng.ReplDurableSeq() })
	if err := feng.Flush(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(want)
	if got := feng.Keys(); !slices.Equal(got, want) {
		t.Fatalf("after catch-up the follower serves %d keys, want %d", len(got), len(want))
	}
}
