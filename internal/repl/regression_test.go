package repl

import (
	"testing"

	"learnedindex/internal/storage"
)

// TestReplPrimaryRestartStreamReset: a restarted primary reopens its engine,
// so its frame sequence restarts at 1 under a bumped epoch. At the epoch
// raise the follower must discard the old stream's applied horizon —
// otherwise, once the new stream's durable sequence passes the stale value,
// a later reconnect advertises the stale horizon, the primary resumes at
// stale+1, and every frame between the follower's real position and the
// stale mark is silently skipped: permanent key loss that survives heal.
func TestReplPrimaryRestartStreamReset(t *testing.T) {
	tr := NewMemTransport()
	pdir := t.TempDir()
	peng, err := storage.Open(pdir, storage.Options{CompactFanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPrimary(peng, fastPrimaryOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Serve(tr, "prim"); err != nil {
		t.Fatal(err)
	}
	// 60 single-key commits: frames 1..60 of epoch 1's stream.
	for k := uint64(0); k < 60; k++ {
		if err := peng.CommitBatch([]uint64{k}); err != nil {
			t.Fatal(err)
		}
	}
	feng := openEngine(t, false)
	defer feng.Close()
	fol, err := NewFollower(feng, fastFollowerOpts("prim", tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Start()
	waitFor(t, "epoch-1 catch-up", func() bool {
		return fol.AppliedSeq() >= peng.ReplDurableSeq()
	})

	// Primary "process restart": engine close + reopen from disk, epoch
	// bumped, frame sequence back to 1.
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := peng.Close(); err != nil {
		t.Fatal(err)
	}
	peng2, err := storage.Open(pdir, storage.Options{CompactFanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer peng2.Close()
	p2, err := NewPrimary(peng2, fastPrimaryOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Serve(tr, "prim"); err != nil {
		t.Fatal(err)
	}
	// 20 new-stream frames — durable seq 20, far BELOW the follower's old
	// horizon of 60, so a stale horizon cannot be served from this stream.
	for k := uint64(100); k < 120; k++ {
		if err := peng2.CommitBatch([]uint64{k}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "epoch-2 re-snapshot", func() bool {
		st := fol.Status()
		return st.MaxEpoch == 2 && st.AppliedSeq >= peng2.ReplDurableSeq()
	})

	// Sever, then push the new stream's durable sequence past the old
	// stream's horizon while the follower is disconnected.
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	p3, err := NewPrimary(peng2, fastPrimaryOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Close()
	for k := uint64(200); k < 260; k++ { // frames 21..80: durable 80 > 60
		if err := peng2.CommitBatch([]uint64{k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p3.Serve(tr, "prim"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restart reconnect catch-up", func() bool {
		return fol.AppliedSeq() >= peng2.ReplDurableSeq()
	})
	if err := feng.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(lo, hi uint64) {
		t.Helper()
		for k := lo; k < hi; k++ {
			if !feng.Contains(k) {
				t.Fatalf("follower lost key %d across the primary restart (frames skipped past a stale horizon)", k)
			}
		}
	}
	check(0, 60)
	check(100, 120)
	check(200, 260)
	if err := peng2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := feng.Len(), peng2.Len(); got != want {
		t.Fatalf("follower Len=%d, primary Len=%d", got, want)
	}
}
