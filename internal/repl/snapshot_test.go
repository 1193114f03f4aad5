package repl

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"learnedindex/internal/storage"
	"learnedindex/internal/vfs"
)

// A follower applies a snapshot the way Open applies a preload: it holds the
// chunks and bulk-loads them at the snapshot's end. These tests pin what
// that promises — a cut transfer leaves nothing, a re-snapshot keeps what
// the engine already held, and the load never costs the session.

// snapModes runs body once per key mode.
func snapModes(t *testing.T, body func(t *testing.T, str bool)) {
	for _, mode := range []struct {
		name string
		str  bool
	}{{"uint64", false}, {"string", true}} {
		t.Run(mode.name, func(t *testing.T) { body(t, mode.str) })
	}
}

// commitRange commits keys [lo, hi) to eng, ten to a batch.
func commitRange(t *testing.T, eng *storage.Engine, str bool, lo, hi uint64) {
	t.Helper()
	for k := lo; k < hi; k += 10 {
		var err error
		if str {
			var b []string
			for j := k; j < min(k+10, hi); j++ {
				b = append(b, strKey(j))
			}
			err = eng.CommitStringBatch(b)
		} else {
			var b []uint64
			for j := k; j < min(k+10, hi); j++ {
				b = append(b, j)
			}
			err = eng.CommitBatch(b)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func strKey(k uint64) string { return fmt.Sprintf("k%08d", k) }

// servesExactly fails unless eng serves every key of [lo, hi) and no other.
func servesExactly(t *testing.T, eng *storage.Engine, str bool, lo, hi uint64) {
	t.Helper()
	for k := lo; k < hi; k++ {
		ok := false
		if str {
			ok = eng.ContainsString(strKey(k))
		} else {
			ok = eng.Contains(k)
		}
		if !ok {
			t.Fatalf("follower does not serve key %d", k)
		}
	}
	if got, want := eng.Len(), int(hi-lo); got != want {
		t.Fatalf("follower serves %d keys, want %d", got, want)
	}
}

// cutOnce is a follower's transport whose first connection fails after
// reading limit bytes, and which refuses every later dial.
type cutOnce struct {
	Transport
	limit  int
	dialed atomic.Bool
	cut    atomic.Bool
}

func (t *cutOnce) Dial(addr string) (Conn, error) {
	if t.dialed.Swap(true) {
		return nil, ErrConnRefused
	}
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &cutConn{Conn: c, left: t.limit, cut: &t.cut}, nil
}

type cutConn struct {
	Conn
	left int
	cut  *atomic.Bool
}

func (c *cutConn) Read(p []byte) (int, error) {
	if c.left <= 0 {
		c.cut.Store(true)
		c.Conn.Close()
		return 0, errors.New("repl test: connection cut")
	}
	n, err := c.Conn.Read(p[:min(len(p), c.left)])
	c.left -= n
	return n, err
}

// TestReplSnapshotCutServesNone: a follower whose session dies between a
// snapshot's first chunks and its end serves none of that snapshot — not
// while it is disconnected, not after a restart — and converges exactly on
// the re-snapshot of its next session.
func TestReplSnapshotCutServesNone(t *testing.T) {
	snapModes(t, func(t *testing.T, str bool) {
		peng := openEngine(t, str)
		defer peng.Close()
		commitRange(t, peng, str, 0, 2000)
		if err := peng.Flush(); err != nil {
			t.Fatal(err)
		}
		tr := NewMemTransport()
		popt := fastPrimaryOpts(1)
		popt.SnapChunkKeys = 100 // ~1 KiB chunks: the cut lands after several
		p, err := NewPrimary(peng, popt)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.Serve(tr, "prim"); err != nil {
			t.Fatal(err)
		}

		fdir := t.TempDir()
		feng, err := storage.Open(fdir, storage.Options{StringKeys: str, CompactFanout: 3, DrainKeys: followerDrainKeys})
		if err != nil {
			t.Fatal(err)
		}
		// About 40% of the snapshot's bytes: its first chunks, not its end.
		cut := &cutOnce{Transport: tr, limit: 2 << 10}
		if str {
			cut.limit = 8 << 10
		}
		fol, err := NewFollower(feng, fastFollowerOpts("prim", cut))
		if err != nil {
			t.Fatal(err)
		}
		fol.Start()
		waitFor(t, "the cut session's end", func() bool {
			return cut.cut.Load() && !fol.Status().Connected
		})
		if n := fol.m.snapshots.Load(); n != 1 {
			t.Fatalf("the cut session began %d snapshots, want 1", n)
		}
		if n, seq := feng.Len(), fol.AppliedSeq(); n != 0 || seq != 0 {
			t.Fatalf("after a cut snapshot the follower serves %d keys at applied seq %d, want none", n, seq)
		}
		if err := fol.Close(); err != nil {
			t.Fatal(err)
		}
		if err := feng.Close(); err != nil {
			t.Fatal(err)
		}

		feng, err = storage.Open(fdir, storage.Options{StringKeys: str, CompactFanout: 3, DrainKeys: followerDrainKeys})
		if err != nil {
			t.Fatal(err)
		}
		defer feng.Close()
		if n := feng.Len() + feng.PendingLen(); n != 0 {
			t.Fatalf("a restart after a cut snapshot holds %d keys, want none", n)
		}
		fol, err = NewFollower(feng, fastFollowerOpts("prim", tr))
		if err != nil {
			t.Fatal(err)
		}
		defer fol.Close()
		fol.Start()
		waitFor(t, "the re-snapshot", func() bool {
			return feng.Len() == 2000 && fol.AppliedSeq() >= peng.ReplDurableSeq()
		})
		servesExactly(t, feng, str, 0, 2000)
	})
}

// TestReplResnapshotServesUnion: an epoch raise re-snapshots a follower
// that holds keys of the old stream both in a resident run (a drain) and
// pending (frames since). The bulk load first spills both, so the follower
// serves the union of what it held and the new primary's image, and
// nothing is left pending.
func TestReplResnapshotServesUnion(t *testing.T) {
	snapModes(t, func(t *testing.T, str bool) {
		tr := NewMemTransport()
		engA := openEngine(t, str)
		defer engA.Close()
		pA, err := NewPrimary(engA, fastPrimaryOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		defer pA.Close()
		if err := pA.Serve(tr, "a"); err != nil {
			t.Fatal(err)
		}
		feng := openEngine(t, str)
		defer feng.Close()
		// No DrainKeys on feng: frames stay pending until the test drains.
		fol, err := NewFollower(feng, fastFollowerOpts("a", tr))
		if err != nil {
			t.Fatal(err)
		}
		defer fol.Close()
		fol.Start()
		applied := func(eng *storage.Engine) func() bool {
			return func() bool { return fol.AppliedSeq() >= eng.ReplDurableSeq() }
		}
		// The empty engine's snapshot first, so every key below is a frame.
		waitFor(t, "the first baseline", func() bool {
			fol.mu.Lock()
			defer fol.mu.Unlock()
			return fol.baselined
		})

		commitRange(t, engA, str, 0, 100)
		waitFor(t, "the first frames", applied(engA))
		if err := feng.Drain(); err != nil {
			t.Fatal(err)
		}
		commitRange(t, engA, str, 100, 200)
		waitFor(t, "the second frames", applied(engA))
		if st := feng.Stats(); st.Drains != 1 || st.PendingKeys != 100 || st.Flushes != 0 {
			t.Fatalf("before the re-snapshot: %d drains, %d pending keys, %d flushes; want a resident run and 100 pending",
				st.Drains, st.PendingKeys, st.Flushes)
		}

		// A new primary at a higher epoch, overlapping the old keys. Its
		// sink is installed before its first commit, so its durable
		// sequence counts them and the wait below ends at the snapshot's.
		engB := openEngine(t, str)
		defer engB.Close()
		pB, err := NewPrimary(engB, fastPrimaryOpts(2))
		if err != nil {
			t.Fatal(err)
		}
		defer pB.Close()
		commitRange(t, engB, str, 150, 300)
		if err := pB.Serve(tr, "b"); err != nil {
			t.Fatal(err)
		}
		fol.Retarget("b")
		waitFor(t, "the epoch-2 re-snapshot", func() bool {
			st := fol.Status()
			return st.MaxEpoch == 2 && st.AppliedSeq >= engB.ReplDurableSeq()
		})
		servesExactly(t, feng, str, 0, 300)
		if n := feng.PendingLen(); n != 0 {
			t.Fatalf("%d keys pending after the re-snapshot, want 0", n)
		}
	})
}

// TestReplSnapshotOutlastsReadTimeout: a snapshot whose transfer and bulk
// load each take far longer than the primary's silence watchdog must still
// complete in one session. The follower's per-chunk progress acks feed the
// watchdog during the transfer, and the reader's heartbeat acks during the
// load; without them the primary severs the session and cold catch-up
// livelocks (sever → re-snapshot → sever ...).
func TestReplSnapshotOutlastsReadTimeout(t *testing.T) {
	peng := openEngine(t, false)
	defer peng.Close()
	var keys []uint64
	for k := uint64(0); k < 800; k++ {
		keys = append(keys, k)
	}
	if err := peng.CommitBatch(keys); err != nil {
		t.Fatal(err)
	}
	if err := peng.Flush(); err != nil {
		t.Fatal(err)
	}

	tr := NewMemTransport()
	p, err := NewPrimary(peng, PrimaryOptions{
		Epoch:          1,
		HeartbeatEvery: 10 * time.Millisecond,
		ReadTimeout:    75 * time.Millisecond,
		SnapChunkKeys:  1, // 800 chunks, each acked as it arrives
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Serve(tr, "prim"); err != nil {
		t.Fatal(err)
	}

	// A follower engine whose every fsync costs a millisecond and whose
	// segment commit costs 300: the 800-chunk transfer with an ack each and
	// the bulk load at its end both outlast ReadTimeout several times over.
	const loadStall = 300 * time.Millisecond
	slow := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
	slow.SetHook(func(op vfs.Op, path string) error {
		if op == vfs.OpSync {
			time.Sleep(time.Millisecond)
			if strings.HasSuffix(path, ".seg.tmp") {
				time.Sleep(loadStall)
			}
		}
		return nil
	})
	feng, err := storage.Open(t.TempDir(), storage.Options{CompactFanout: 3, DrainKeys: followerDrainKeys, FS: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer feng.Close()
	fol, err := NewFollower(feng, fastFollowerOpts("prim", tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Start()

	waitFor(t, "slow snapshot completion", func() bool { return feng.Len() == len(keys) })
	for _, k := range keys {
		if !feng.Contains(k) {
			t.Fatalf("follower missing key %d after snapshot", k)
		}
	}
	if rc := fol.Status().Reconnects; rc != 0 {
		t.Fatalf("Reconnects = %d, want 0 — the primary watchdog severed a live snapshot", rc)
	}
}
