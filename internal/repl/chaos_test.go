package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"learnedindex/internal/storage"
	"learnedindex/internal/vfs"
)

// chaosTally aggregates injected-fault counts across every trial so the
// suite can assert the schedules actually fire — a chaos oracle whose
// faults silently stopped injecting proves nothing.
var chaosTally = struct {
	sync.Mutex
	net  map[string]int
	disk int64
}{net: map[string]int{}}

func tallyChaos(fnet *FaultNet, pffs *vfs.FaultFS) {
	chaosTally.Lock()
	defer chaosTally.Unlock()
	for k, v := range fnet.InjectionCounts() {
		chaosTally.net[k] += v
	}
	chaosTally.disk += pffs.Injected()
}

// chaosFS is the primary-side filesystem fault schedule: every class live
// at a low rate (the storage oracle's mix, halved — the trial also has to
// survive the network, so the disk should not poison every run instantly).
func chaosFS(seed int64) vfs.FaultConfig {
	return vfs.FaultConfig{
		Seed:        seed,
		SyncErr:     0.01,
		SyncDirErr:  0.01,
		WriteENOSPC: 0.005,
		TornWrite:   0.01,
		RenameErr:   0.01,
		RemoveErr:   0.02,
		OpenErr:     0.005,
		ReadErr:     0.005,
	}
}

// chaosNet is the wire fault schedule: connection drops, torn and
// bit-flipped and reordered messages, slow links, flaky dials.
func chaosNet(seed int64) FaultNetConfig {
	return FaultNetConfig{
		Seed:         seed,
		DialErr:      0.05,
		DropConn:     0.01,
		TornWrite:    0.01,
		CorruptBit:   0.01,
		ReorderWrite: 0.01,
		Delay:        0.02,
		MaxDelay:     time.Millisecond,
	}
}

// TestReplChaosOracle is the replication plane's randomized chaos oracle,
// the wire-level sibling of storage's TestFaultScheduleOracle: a primary on
// a fault-injected filesystem ships to a follower over a fault-injected
// network while the driver mixes writes, scripted partitions, and follower
// crash/restarts — 25+ seeds per key mode (one per mode under -race).
//
// Invariants, checked at sampled steps throughout:
//   - the follower's served set is always a subset of the keys the primary
//     has made durable (a follower never runs ahead of the primary's acks,
//     and replay never invents a key);
//   - primary errors are always scheduled faults or their lawful sticky
//     consequences, never unscheduled failures, never panics.
//
// After heal (faults off, partition lifted, primary recovered from disk
// under a bumped epoch) the follower must converge to EXACTLY the
// primary's served set — equal Len, equal keys.
func TestReplChaosOracle(t *testing.T) {
	seeds := 25
	if raceEnabled {
		seeds = 1
	}
	for _, mode := range []struct {
		name string
		str  bool
	}{{"uint64", false}, {"string", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			// The extra "trials" group makes its parallel children complete
			// before the schedule-coverage assertion below runs.
			t.Run("trials", func(t *testing.T) {
				for s := 0; s < seeds; s++ {
					seed := int64(9000 + s)
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						t.Parallel()
						runReplChaosTrial(t, seed, mode.str)
					})
				}
			})
			if t.Failed() || raceEnabled {
				return // one -race seed cannot promise every class fires
			}
			chaosTally.Lock()
			defer chaosTally.Unlock()
			for _, class := range []string{"dial", "drop_conn", "torn_write", "corrupt_bit", "reorder_write", "partition"} {
				if chaosTally.net[class] == 0 {
					t.Errorf("chaos schedule never injected %q across the seed fleet", class)
				}
			}
			if chaosTally.disk == 0 {
				t.Error("chaos schedule never injected a primary filesystem fault")
			}
		})
	}
}

func runReplChaosTrial(t *testing.T, seed int64, strMode bool) {
	pdir, fdir := t.TempDir(), t.TempDir()
	str := func(k uint64) string { return fmt.Sprintf("k%016x", k) }

	// Primary engine on the fault-injected filesystem. NoCompactor keeps
	// the primary's fault stream aligned with driver operations (Compact
	// runs inline); the follower engine runs the full default stack on a
	// clean filesystem — the follower's own durability is the storage
	// oracle's problem, this trial is about the wire.
	pffs := vfs.NewFaultFS(vfs.OS, chaosFS(seed))
	pffs.Disarm()
	peng, err := storage.Open(pdir, storage.Options{
		NoCompactor: true, CompactFanout: 3, StringKeys: strMode, FS: pffs,
	})
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemTransport()
	fnet := NewFaultNet(mem, chaosNet(seed))
	prim, err := NewPrimary(peng, PrimaryOptions{
		Epoch: 1, HeartbeatEvery: 10 * time.Millisecond, RingFrames: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := prim.Serve(fnet, "prim"); err != nil {
		t.Fatal(err)
	}
	pffs.Arm()

	folOpts := FollowerOptions{
		Addr: "prim", Transport: fnet,
		ReconnectBase: 2 * time.Millisecond, ReconnectMax: 40 * time.Millisecond,
		JitterSeed:       seed,
		HeartbeatTimeout: time.Second,
		QueueDepth:       8,
	}
	openFollower := func() (*storage.Engine, *Follower) {
		feng, err := storage.Open(fdir, storage.Options{CompactFanout: 3, DrainKeys: 300, StringKeys: strMode})
		if err != nil {
			t.Fatalf("follower open: %v", err)
		}
		fol, err := NewFollower(feng, folOpts)
		if err != nil {
			t.Fatal(err)
		}
		fol.Start()
		return feng, fol
	}
	feng, fol := openFollower()

	doCommit := func(b []uint64) error {
		if !strMode {
			return peng.CommitBatch(b)
		}
		s := make([]string, len(b))
		for i, k := range b {
			s[i] = str(k)
		}
		return peng.CommitStringBatch(s)
	}
	doAppend := func(b []uint64) error {
		if !strMode {
			return peng.AppendBatch(b)
		}
		s := make([]string, len(b))
		for i, k := range b {
			s[i] = str(k)
		}
		return peng.AppendStringBatch(s)
	}

	scheduled := func(err error) bool {
		return errors.Is(err, vfs.ErrInjected) ||
			errors.Is(err, storage.ErrPoisoned) || errors.Is(err, storage.ErrDegraded)
	}
	requireScheduled := func(op string, err error) {
		t.Helper()
		if !scheduled(err) {
			t.Fatalf("%s: unscheduled error %v", op, err)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	acked := map[uint64]bool{}     // primary acked durably — must survive its crash
	mayRepl := map[uint64]bool{}   // durable-possible: the follower may serve these
	attempted := map[uint64]bool{} // everything ever handed to the primary
	var unsynced []uint64

	batch := func() []uint64 {
		n := 1 + rng.Intn(30)
		b := make([]uint64, n)
		for i := range b {
			b[i] = uint64(rng.Int63n(1_000_000_000))
			attempted[b[i]] = true
		}
		return b
	}
	ack := func(keys []uint64) {
		for _, k := range keys {
			acked[k] = true
			mayRepl[k] = true
		}
	}

	// followerKeys decodes the follower's currently served set back to the
	// trial's key domain (a served key outside the domain is an invention).
	followerKeys := func(eng *storage.Engine) []uint64 {
		t.Helper()
		if !strMode {
			return eng.Keys()
		}
		var out []uint64
		for _, s := range eng.KeysStrings() {
			var k uint64
			if n, err := fmt.Sscanf(s, "k%016x", &k); n != 1 || err != nil {
				t.Fatalf("follower serves invented key %q", s)
			}
			out = append(out, k)
		}
		return out
	}
	checkSubset := func() {
		t.Helper()
		// Flushing surfaces applied-but-pending keys into the served set so
		// the sample sees them; the follower engine is on a clean fs, so a
		// flush error here is a real bug.
		if err := feng.Flush(); err != nil {
			t.Fatalf("follower flush: %v", err)
		}
		for _, k := range followerKeys(feng) {
			if !mayRepl[k] {
				t.Fatalf("follower serves key %d the primary never made durable", k)
			}
			if !attempted[k] {
				t.Fatalf("follower serves invented key %d", k)
			}
		}
	}

	partitioned := false
	steps := 40 + rng.Intn(20)
	for i := 0; i < steps; i++ {
		switch rng.Intn(14) {
		case 0, 1, 2: // Append: durable only once a later sync-class op acks
			b := batch()
			if err := doAppend(b); err != nil {
				requireScheduled("append", err)
			} else {
				unsynced = append(unsynced, b...)
			}
		case 3, 4, 5, 6: // Commit: the cohort fsync covers prior appends too
			b := batch()
			if err := doCommit(b); err != nil {
				requireScheduled("commit", err)
			} else {
				ack(b)
				ack(unsynced)
				unsynced = unsynced[:0]
			}
		case 7: // Sync
			if err := peng.Sync(); err != nil {
				requireScheduled("sync", err)
			} else {
				ack(unsynced)
				unsynced = unsynced[:0]
			}
		case 8: // Flush: on failure the frozen log's fsync may still have
			// landed (and shipped) before the segment plane failed, so the
			// unsynced keys become durable-POSSIBLE without being acked.
			if err := peng.Flush(); err != nil {
				requireScheduled("flush", err)
				for _, k := range unsynced {
					mayRepl[k] = true
				}
				unsynced = unsynced[:0]
			} else {
				ack(unsynced)
				unsynced = unsynced[:0]
			}
		case 9:
			if err := peng.Compact(); err != nil {
				requireScheduled("compact", err)
			}
		case 10: // scripted partition toggle
			partitioned = !partitioned
			fnet.SetPartitioned(partitioned)
		case 11: // follower crash + restart (engine close/reopen included)
			if err := fol.Close(); err != nil {
				t.Fatalf("follower close: %v", err)
			}
			if err := feng.Close(); err != nil {
				t.Fatalf("follower engine close: %v", err)
			}
			feng, fol = openFollower()
		case 12: // let the pipeline move
			time.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
		case 13:
			checkSubset()
		}
	}
	checkSubset()

	// --- heal ------------------------------------------------------------
	// Faults off, partition lifted, primary recovered from its own disk
	// under a bumped epoch (a restarted primary must move the epoch — its
	// frame sequence restarts). The follower, whatever state the chaos left
	// it in, must reconnect, re-snapshot, and converge exactly.
	fnet.Disarm()
	fnet.SetPartitioned(false)
	partitioned = false
	_ = partitioned
	if err := prim.Close(); err != nil {
		t.Fatalf("primary close: %v", err)
	}
	pffs.Disarm()
	if err := peng.Close(); err != nil {
		requireScheduled("primary engine close", err)
	}
	for _, k := range unsynced {
		mayRepl[k] = true // a closing flush may have landed them
	}
	peng2, err := storage.Open(pdir, storage.Options{
		NoCompactor: true, CompactFanout: 3, StringKeys: strMode,
	})
	if err != nil {
		t.Fatalf("primary reopen after chaos: %v", err)
	}
	defer peng2.Close()
	peng = peng2 // not used for writes below; keeps helpers honest
	prim2, err := NewPrimary(peng2, PrimaryOptions{
		Epoch: 2, HeartbeatEvery: 10 * time.Millisecond, RingFrames: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer prim2.Close()
	if err := prim2.Serve(fnet, "prim"); err != nil {
		t.Fatal(err)
	}

	// The recovered primary must serve every key it acked (the storage
	// oracle's guarantee, re-checked here because replication rides on it)
	// and nothing it was never given.
	primServed := followerKeys(peng2)
	primSet := make(map[uint64]bool, len(primServed))
	for _, k := range primServed {
		if !attempted[k] {
			t.Fatalf("recovered primary serves invented key %d", k)
		}
		primSet[k] = true
		mayRepl[k] = true // recovery may surface attempted-but-unacked keys
	}
	for k := range acked {
		if !primSet[k] {
			t.Fatalf("acked key %d lost by primary across the chaos schedule", k)
		}
	}

	// Exact convergence: equal Len, equal key sets.
	deadline := time.Now().Add(testTimeout)
	for {
		if err := feng.Flush(); err != nil {
			t.Fatalf("follower flush: %v", err)
		}
		got := followerKeys(feng)
		if slices.Equal(got, primServed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence after heal: follower %d keys, primary %d keys (epoch=%d applied=%d primDurable=%d)",
				len(got), len(primServed), fol.Status().MaxEpoch, fol.Status().AppliedSeq, peng2.ReplDurableSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkSubset()

	if err := fol.Close(); err != nil {
		t.Fatalf("follower close: %v", err)
	}
	if err := feng.Close(); err != nil {
		t.Fatalf("follower engine close: %v", err)
	}
	tallyChaos(fnet, pffs)
}
