package repl

import (
	"testing"
	"time"

	"learnedindex/internal/storage"
)

// testTimeout bounds every convergence wait in this file.
const testTimeout = 30 * time.Second

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func openEngine(t *testing.T, strMode bool) *storage.Engine {
	t.Helper()
	e, err := storage.Open(t.TempDir(), storage.Options{StringKeys: strMode, CompactFanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// followerDrainKeys is the drain threshold of the tests' follower engines,
// where a follower store would pass its MergeThreshold.
const followerDrainKeys = 500

// openFollowerEngine is openEngine for a follower: the engine drains itself
// at followerDrainKeys pending keys.
func openFollowerEngine(t *testing.T, strMode bool) *storage.Engine {
	t.Helper()
	e, err := storage.Open(t.TempDir(), storage.Options{StringKeys: strMode, CompactFanout: 3, DrainKeys: followerDrainKeys})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func fastFollowerOpts(addr string, tr Transport) FollowerOptions {
	return FollowerOptions{
		Addr:             addr,
		Transport:        tr,
		ReconnectBase:    2 * time.Millisecond,
		ReconnectMax:     50 * time.Millisecond,
		JitterSeed:       1,
		HeartbeatTimeout: 2 * time.Second,
	}
}

func fastPrimaryOpts(epoch uint64) PrimaryOptions {
	return PrimaryOptions{Epoch: epoch, HeartbeatEvery: 10 * time.Millisecond, RingFrames: 256}
}

// TestReplShipAndServe: keys committed on the primary become durable and
// served on the follower, in both key modes, including keys committed
// BEFORE the follower ever connected (snapshot path) and after (stream
// path).
func TestReplShipAndServe(t *testing.T) {
	for _, mode := range []struct {
		name string
		str  bool
	}{{"uint64", false}, {"string", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			peng := openEngine(t, mode.str)
			defer peng.Close()
			tr := NewMemTransport()
			p, err := NewPrimary(peng, fastPrimaryOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if err := p.Serve(tr, "prim"); err != nil {
				t.Fatal(err)
			}

			commit := func(lo, hi uint64) { commitRange(t, peng, mode.str, lo, hi) }
			// History before the follower exists: must arrive via snapshot
			// (flush some into segments, leave some in the durable WAL tail).
			commit(0, 500)
			if err := peng.Flush(); err != nil {
				t.Fatal(err)
			}
			commit(500, 700)

			feng := openFollowerEngine(t, mode.str)
			defer feng.Close()
			fol, err := NewFollower(feng, fastFollowerOpts("prim", tr))
			if err != nil {
				t.Fatal(err)
			}
			defer fol.Close()
			fol.Start()

			// Live stream on top.
			commit(700, 1000)
			waitFor(t, "follower caught up", func() bool {
				return fol.AppliedSeq() >= peng.ReplDurableSeq()
			})
			if err := feng.Flush(); err != nil {
				t.Fatal(err)
			}
			servesExactly(t, feng, mode.str, 0, 1000)
			st := fol.Status()
			if !st.Connected || st.MaxEpoch != 1 {
				t.Fatalf("status = %+v, want connected at epoch 1", st)
			}
		})
	}
}

// TestReplFollowerNeverAheadOfDurable: a follower must never serve a key
// the primary has not made durable — appended-but-unsynced keys stay off
// the wire until their fsync.
func TestReplFollowerNeverAheadOfDurable(t *testing.T) {
	peng := openEngine(t, false)
	defer peng.Close()
	tr := NewMemTransport()
	p, err := NewPrimary(peng, fastPrimaryOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Serve(tr, "prim"); err != nil {
		t.Fatal(err)
	}
	feng := openFollowerEngine(t, false)
	defer feng.Close()
	fol, err := NewFollower(feng, fastFollowerOpts("prim", tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Start()

	if err := peng.CommitBatch([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Appended, never synced: not durable, must not replicate.
	if err := peng.AppendBatch([]uint64{100, 101}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "committed keys on follower", func() bool {
		return fol.AppliedSeq() >= peng.ReplDurableSeq()
	})
	// Give the stream a few heartbeats' opportunity to (wrongly) ship them.
	time.Sleep(50 * time.Millisecond)
	if err := feng.Flush(); err != nil {
		t.Fatal(err)
	}
	if feng.Contains(100) || feng.Contains(101) {
		t.Fatal("follower serves a key the primary never made durable")
	}
	for _, k := range []uint64{1, 2, 3} {
		if !feng.Contains(k) {
			t.Fatalf("follower missing durable key %d", k)
		}
	}
}

// TestReplFencing: a follower that has seen epoch 2 refuses a primary at
// epoch 1, tells it so, and never applies its frames; the deposed primary
// observes Deposed. Failback to the real primary resumes replication.
func TestReplFencing(t *testing.T) {
	tr := NewMemTransport()
	engA := openEngine(t, false)
	defer engA.Close()
	engB := openEngine(t, false)
	defer engB.Close()
	feng := openFollowerEngine(t, false)
	defer feng.Close()

	pA, err := NewPrimary(engA, fastPrimaryOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer pA.Close()
	if err := pA.Serve(tr, "a"); err != nil {
		t.Fatal(err)
	}
	pB, err := NewPrimary(engB, fastPrimaryOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pB.Close()
	if err := pB.Serve(tr, "b"); err != nil {
		t.Fatal(err)
	}

	fol, err := NewFollower(feng, fastFollowerOpts("a", tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Start()

	if err := engA.CommitBatch([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "epoch-1 keys applied", func() bool {
		return fol.AppliedSeq() >= engA.ReplDurableSeq()
	})

	// Failover: the follower moves to B (epoch 2) and learns the new epoch.
	fol.Retarget("b")
	if err := engB.CommitBatch([]uint64{1, 2, 3, 10, 11}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "epoch 2 adopted and applied", func() bool {
		st := fol.Status()
		return st.MaxEpoch == 2 && st.AppliedSeq >= engB.ReplDurableSeq()
	})

	// Flap back to the deposed primary: it must be fenced, its new frames
	// must never land, and it must learn it is deposed.
	fol.Retarget("a")
	if err := engA.CommitBatch([]uint64{777}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deposed primary fenced", func() bool { return pA.Deposed() })
	time.Sleep(30 * time.Millisecond) // window for a (wrong) apply to land
	if err := feng.Flush(); err != nil {
		t.Fatal(err)
	}
	if feng.Contains(777) {
		t.Fatal("follower applied a frame from a deposed primary")
	}

	// Back to the real primary: replication resumes.
	fol.Retarget("b")
	if err := engB.CommitBatch([]uint64{20}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replication resumed on B", func() bool {
		return fol.AppliedSeq() >= engB.ReplDurableSeq()
	})
	if err := feng.Flush(); err != nil {
		t.Fatal(err)
	}
	if !feng.Contains(20) || !feng.Contains(10) {
		t.Fatal("follower missing epoch-2 keys after failback")
	}
}

// TestReplReconnectBackoff: a follower started against a dead address keeps
// retrying with backoff, connects once the primary appears, catches up, and
// counts its reconnects across a listener bounce.
func TestReplReconnectBackoff(t *testing.T) {
	tr := NewMemTransport()
	peng := openEngine(t, false)
	defer peng.Close()
	feng := openFollowerEngine(t, false)
	defer feng.Close()

	fol, err := NewFollower(feng, fastFollowerOpts("prim", tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Start()
	time.Sleep(20 * time.Millisecond) // several failed dials accumulate

	p, err := NewPrimary(peng, fastPrimaryOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Serve(tr, "prim"); err != nil {
		t.Fatal(err)
	}
	if err := peng.CommitBatch([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial catch-up", func() bool {
		return fol.AppliedSeq() >= peng.ReplDurableSeq()
	})

	// Bounce the primary (new epoch — a restarted primary must move up).
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower sees the drop", func() bool { return !fol.Status().Connected })
	p2, err := NewPrimary(peng, fastPrimaryOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.Serve(tr, "prim"); err != nil {
		t.Fatal(err)
	}
	if err := peng.CommitBatch([]uint64{4, 5}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reconnected and caught up", func() bool {
		st := fol.Status()
		return st.Connected && st.MaxEpoch == 2 && st.AppliedSeq >= peng.ReplDurableSeq()
	})
	if fol.Status().Reconnects < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", fol.Status().Reconnects)
	}
	if err := feng.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{1, 2, 3, 4, 5} {
		if !feng.Contains(k) {
			t.Fatalf("missing key %d after reconnect", k)
		}
	}
}

// TestReplColdCatchupAfterRestart: a follower restarted from disk (engine
// close + reopen, new Follower) under a bumped primary epoch re-syncs by
// snapshot and converges exactly.
func TestReplColdCatchupAfterRestart(t *testing.T) {
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

	fdir := t.TempDir()
	feng, err := storage.Open(fdir, storage.Options{CompactFanout: 3, DrainKeys: followerDrainKeys})
	if err != nil {
		t.Fatal(err)
	}
	fol, err := NewFollower(feng, fastFollowerOpts("prim", tr))
	if err != nil {
		t.Fatal(err)
	}
	fol.Start()

	var keys []uint64
	for k := uint64(0); k < 300; k++ {
		keys = append(keys, k*3)
	}
	if err := peng.CommitBatch(keys[:100]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first batch applied", func() bool {
		return fol.AppliedSeq() >= peng.ReplDurableSeq()
	})

	// Crash the follower: close the replay loop and its engine.
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	if err := feng.Close(); err != nil {
		t.Fatal(err)
	}
	// Primary moves on while the follower is down, far past the ring.
	if err := peng.CommitBatch(keys[100:]); err != nil {
		t.Fatal(err)
	}
	if err := peng.Flush(); err != nil {
		t.Fatal(err)
	}

	feng2, err := storage.Open(fdir, storage.Options{CompactFanout: 3, DrainKeys: followerDrainKeys})
	if err != nil {
		t.Fatal(err)
	}
	defer feng2.Close()
	fol2, err := NewFollower(feng2, fastFollowerOpts("prim", tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fol2.Close()
	if got := fol2.Status().MaxEpoch; got != 1 {
		t.Fatalf("restarted follower forgot its epoch floor: MaxEpoch=%d", got)
	}
	fol2.Start()
	waitFor(t, "cold catch-up", func() bool {
		return fol2.AppliedSeq() >= peng.ReplDurableSeq()
	})
	if err := feng2.Flush(); err != nil {
		t.Fatal(err)
	}
	if feng2.Len() != peng.Len() {
		t.Fatalf("Len mismatch after catch-up: follower=%d primary=%d", feng2.Len(), peng.Len())
	}
	for _, k := range keys {
		if !feng2.Contains(k) {
			t.Fatalf("missing key %d after cold catch-up", k)
		}
	}
}

// TestReplPrimaryNeverBlocksOnDeadFollower: with the follower partitioned
// away, primary commits keep completing and lag is observed, not blocked
// on.
func TestReplPrimaryNeverBlocksOnDeadFollower(t *testing.T) {
	mem := NewMemTransport()
	fnet := NewFaultNet(mem, FaultNetConfig{Seed: 42})
	fnet.Disarm()
	peng := openEngine(t, false)
	defer peng.Close()
	p, err := NewPrimary(peng, PrimaryOptions{Epoch: 1, HeartbeatEvery: 10 * time.Millisecond, RingFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Serve(fnet, "prim"); err != nil {
		t.Fatal(err)
	}
	feng := openFollowerEngine(t, false)
	defer feng.Close()
	fol, err := NewFollower(feng, fastFollowerOpts("prim", fnet))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Start()
	if err := peng.CommitBatch([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower attached", func() bool { return fol.Status().Connected })

	fnet.SetPartitioned(true)
	// Far more commits than RingFrames: every one must complete promptly
	// even though nothing drains the ring.
	done := make(chan error, 1)
	go func() {
		for i := uint64(0); i < 200; i++ {
			if err := peng.CommitBatch([]uint64{1000 + i}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(testTimeout):
		t.Fatal("commits blocked on a partitioned follower")
	}

	// Heal: the follower reconnects (its resume point fell off the ring →
	// snapshot) and converges.
	fnet.SetPartitioned(false)
	waitFor(t, "post-heal convergence", func() bool {
		return fol.AppliedSeq() >= peng.ReplDurableSeq()
	})
	if err := feng.Flush(); err != nil {
		t.Fatal(err)
	}
	if feng.Len() != 201 {
		t.Fatalf("follower Len=%d want 201", feng.Len())
	}
}
