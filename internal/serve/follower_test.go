package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/repl"
)

func waitFollower(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func fastRepl(addr string, tr repl.Transport) repl.FollowerOptions {
	return repl.FollowerOptions{
		Addr:          addr,
		Transport:     tr,
		ReconnectBase: 2 * time.Millisecond,
		ReconnectMax:  50 * time.Millisecond,
		JitterSeed:    1,
	}
}

// TestFollowerStore wires two serve.Stores — a primary shipping its
// durable frame stream and a follower replaying it — over an in-memory
// transport, and checks the serve-layer contract: the follower converges
// to the primary's committed set, keeps serving after a disconnect, and
// refuses every local write with ErrFollowerStore (or a panic on the
// error-less Insert).
func TestFollowerStore(t *testing.T) {
	tr := repl.NewMemTransport()
	pst, err := Open(nil, core.Config{}, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	prim, err := pst.ServeReplication(tr, "prim", repl.PrimaryOptions{
		Epoch: 1, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pst.ServeReplication(tr, "prim2", repl.PrimaryOptions{Epoch: 1}); err == nil {
		t.Fatal("second ServeReplication on one store should fail")
	}

	fst, err := OpenFollower(core.Config{}, Options{Dir: t.TempDir(), MergeThreshold: 100}, fastRepl(prim.Addr(), tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	if !fst.IsFollower() || pst.IsFollower() {
		t.Fatal("IsFollower misreports")
	}

	keys := make([]uint64, 0, 500)
	for i := uint64(0); i < 500; i++ {
		keys = append(keys, i*3+1)
	}
	if err := pst.InsertDurable(keys...); err != nil {
		t.Fatal(err)
	}
	waitFollower(t, "follower convergence", func() bool { return fst.Len() == len(keys) })
	for _, k := range keys {
		if !fst.Contains(k) {
			t.Fatalf("follower missing replicated key %d", k)
		}
	}
	// Len converges inside the frame apply, a moment before the applied
	// horizon advances — poll the status rather than sampling it once.
	waitFollower(t, "applied horizon", func() bool {
		st, ok := fst.FollowerStatus()
		return ok && st.Connected && st.AppliedSeq > 0
	})
	if _, ok := pst.FollowerStatus(); ok {
		t.Fatal("primary store reported a follower status")
	}

	// Write paths are refused on the follower.
	if err := fst.InsertDurable(1); !errors.Is(err, ErrFollowerStore) {
		t.Fatalf("InsertDurable on follower = %v, want ErrFollowerStore", err)
	}
	if err := fst.Sync(); !errors.Is(err, ErrFollowerStore) {
		t.Fatalf("Sync on follower = %v, want ErrFollowerStore", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Insert on a follower store did not panic")
			}
		}()
		fst.Insert(1)
	}()
	if _, err := fst.ServeReplication(tr, "cascade", repl.PrimaryOptions{Epoch: 9}); err == nil {
		t.Fatal("follower store accepted ServeReplication (cascading)")
	}

	// Graceful degradation: a disconnected follower keeps serving reads.
	if err := pst.Close(); err != nil {
		t.Fatal(err)
	}
	waitFollower(t, "disconnect notice", func() bool {
		st, _ := fst.FollowerStatus()
		return !st.Connected
	})
	if fst.Len() != len(keys) || !fst.Contains(keys[0]) {
		t.Fatal("disconnected follower stopped serving")
	}
}

// TestFollowerStoreServesAtMergeThreshold: a caught-up follower store that
// is never flushed serves every applied key but fewer than its
// MergeThreshold — its engine drains frames' keys at that threshold, as a
// primary's engine drains inserts — so a follower read is as stale as a
// primary's point read, plus its lag.
func TestFollowerStoreServesAtMergeThreshold(t *testing.T) {
	const total, batch, thresh = 1000, 10, 64
	tr := repl.NewMemTransport()
	pst, err := Open(nil, core.Config{}, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	prim, err := pst.ServeReplication(tr, "prim", repl.PrimaryOptions{
		Epoch: 1, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fst, err := OpenFollower(core.Config{}, Options{Dir: t.TempDir(), MergeThreshold: thresh}, fastRepl(prim.Addr(), tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	for lo := uint64(0); lo < total; lo += batch {
		keys := make([]uint64, 0, batch)
		for k := lo; k < lo+batch; k++ {
			keys = append(keys, k*5+2)
		}
		if err := pst.InsertDurable(keys...); err != nil {
			t.Fatal(err)
		}
	}
	waitFollower(t, "every key applied", func() bool {
		st, _ := fst.FollowerStatus()
		return st.LagFrames == 0 && fst.Metrics().Counter("lix_repl_follower_keys_applied_total") == total
	})
	// At rest fewer than thresh keys wait, or the engine would drain them.
	waitFollower(t, "the follower's drains", func() bool { return fst.Len() > total-thresh })
	if n, p := fst.Len(), fst.Pending(); n+p != total || p >= thresh {
		t.Fatalf("caught-up follower serves %d keys with %d pending, want all %d but fewer than %d", n, p, total, thresh)
	}
}

// TestFollowerStoreString is the codec twin: string keys end to end, plus
// the mode handshake (a uint64 follower against a string primary is
// refused and never applies a frame).
func TestFollowerStoreString(t *testing.T) {
	tr := repl.NewMemTransport()
	pst, err := OpenString(nil, core.Config{}, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	prim, err := pst.ServeReplication(tr, "prim", repl.PrimaryOptions{
		Epoch: 1, HeartbeatEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	fst, err := OpenFollowerString(core.Config{}, Options{Dir: t.TempDir(), MergeThreshold: 100}, fastRepl(prim.Addr(), tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()

	var keys []string
	for i := 0; i < 300; i++ {
		keys = append(keys, fmt.Sprintf("key-%05d", i))
	}
	if err := pst.InsertDurableString(keys...); err != nil {
		t.Fatal(err)
	}
	waitFollower(t, "string follower convergence", func() bool { return fst.Len() == len(keys) })
	for _, k := range keys {
		if !fst.ContainsString(k) {
			t.Fatalf("follower missing replicated key %q", k)
		}
	}
	if err := fst.InsertDurableString("x"); !errors.Is(err, ErrFollowerStore) {
		t.Fatalf("InsertDurableString on follower = %v, want ErrFollowerStore", err)
	}

	// Mode mismatch: a uint64 follower dialing this string primary must be
	// rejected by the handshake and apply nothing.
	wrong, err := OpenFollower(core.Config{}, Options{Dir: t.TempDir(), MergeThreshold: 100}, fastRepl(prim.Addr(), tr))
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	time.Sleep(50 * time.Millisecond)
	if wrong.Len() != 0 {
		t.Fatalf("mode-mismatched follower applied %d keys", wrong.Len())
	}
}

// TestFollowerBaselineIsOneSegmentFile is the follower twin of
// TestPreloadIsOneSegmentFile: a fresh follower's baseline — a snapshot of
// several chunks — is bulk-loaded as one segment file, counted as the one
// flush, with nothing written to its log. Both key kinds.
func TestFollowerBaselineIsOneSegmentFile(t *testing.T) {
	keys := data.Uniform(20_000, 1<<40, 31)
	strs := make([]string, len(keys))
	for i, k := range keys {
		strs[i] = fmt.Sprintf("doc/%012x", k)
	}
	for _, str := range []bool{false, true} {
		var pst *Store
		var err error
		open := OpenFollower
		if str {
			pst, err = OpenString(strs, core.Config{}, Options{Dir: t.TempDir()})
			open = OpenFollowerString
		} else {
			pst, err = Open(keys, core.Config{}, Options{Dir: t.TempDir()})
		}
		if err != nil {
			t.Fatal(err)
		}
		tr := repl.NewMemTransport()
		prim, err := pst.ServeReplication(tr, "prim", repl.PrimaryOptions{
			Epoch: 1, HeartbeatEvery: 10 * time.Millisecond, SnapChunkKeys: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		fst, err := open(core.Config{}, Options{Dir: t.TempDir(), MergeThreshold: 100}, fastRepl(prim.Addr(), tr))
		if err != nil {
			t.Fatal(err)
		}
		waitFollower(t, "the baseline", func() bool { return fst.Len() == len(keys) })
		stats, _ := fst.StorageStats()
		if stats.Segments != 1 || stats.Flushes != 1 || stats.WALBytes != 0 {
			t.Fatalf("str=%v: %d segments, %d flushes, %d WAL bytes after a %d-chunk baseline",
				str, stats.Segments, stats.Flushes, stats.WALBytes, (len(keys)+4095)/4096)
		}
		if err := fst.Close(); err != nil {
			t.Fatal(err)
		}
		if err := pst.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
