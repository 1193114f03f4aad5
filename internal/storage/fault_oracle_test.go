package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"learnedindex/internal/vfs"
)

// oracleSchedule is the fault mix every oracle trial runs under: every
// injectable class is live at a low rate so trials exercise fsync loss,
// ENOSPC, torn writes, failed renames/removes/opens, and read errors in
// one schedule. Refused log reservations run at a higher rate than the rest:
// a log is reserved once per flush, and a refusal stops nothing, so it costs
// the trial none of its later steps. ReadCorrupt stays zero in the main
// schedule on purpose — silently rotting the only durable copy of an acked
// key is genuine data loss, not a recoverable fault, so the
// checksum/quarantine plane owns that class (see degraded_test.go). The oracle still exercises it: after
// the clean reopen, a second ReadCorrupt-only schedule rots every segment
// read and Scrub must detect and durably heal all of them (see the scrub
// phase in runFaultOracleTrial).
func oracleSchedule(seed int64) vfs.FaultConfig {
	return vfs.FaultConfig{
		Seed:        seed,
		SyncErr:     0.02,
		SyncDirErr:  0.02,
		WriteENOSPC: 0.01,
		TornWrite:   0.02,
		AllocENOSPC: 0.15,
		RenameErr:   0.02,
		RemoveErr:   0.03,
		OpenErr:     0.01,
		ReadErr:     0.01,
	}
}

// TestFaultScheduleOracle is the randomized fault-schedule oracle: drive
// append/commit/sync/drain/flush/compact against an engine whose every file
// operation runs through a seeded vfs.FaultFS, tracking which keys the
// engine durably ACKED (Commit returned nil, or Sync/Drain/Flush covered an
// earlier Append). Any error the engine surfaces must be scheduled
// (vfs.ErrInjected) or a lawful consequence of one (ErrPoisoned,
// ErrDegraded) — never an unscheduled failure, never a panic. After a
// clean reopen the engine must serve every acked key, serve nothing it
// was never given, and report an exact Len. A refused log reservation is the
// one scheduled fault that must surface nowhere but in the I/O error count.
// Both key modes run the same oracle over ≥50 seeds each.
func TestFaultScheduleOracle(t *testing.T) {
	const seeds = 50
	for _, mode := range []struct {
		name string
		str  bool
	}{{"uint64", false}, {"string", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			var refused atomic.Int64 // reservations, over every trial of the mode
			t.Cleanup(func() {       // runs once the parallel trials are done
				if !t.Failed() && refused.Load() == 0 {
					t.Errorf("no trial of %d had a log reservation refused", seeds)
				}
			})
			for s := 0; s < seeds; s++ {
				seed := int64(7000 + s)
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					t.Parallel()
					refused.Add(runFaultOracleTrial(t, seed, mode.str))
				})
			}
		})
	}
}

// oracleStr is an order-irrelevant injective uint64→string encoding, so one
// oracle body covers both key modes.
func oracleStr(k uint64) string { return fmt.Sprintf("k%016x", k) }

// runFaultOracleTrial returns how many log reservations the schedule refused.
func runFaultOracleTrial(t *testing.T, seed int64, strMode bool) (refused int64) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, oracleSchedule(seed))
	ffs.Disarm() // clean open: the schedule starts with the first write below
	// NoCompactor keeps the trial single-goroutine, so the seeded fault
	// stream maps onto operations deterministically (Compact runs inline).
	e, err := Open(dir, Options{NoCompactor: true, CompactFanout: 3, StringKeys: strMode, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ffs.Arm()

	str := oracleStr
	doAppend := func(b []uint64) error {
		if !strMode {
			return e.AppendBatch(b)
		}
		s := make([]string, len(b))
		for i, k := range b {
			s[i] = str(k)
		}
		return e.AppendStringBatch(s)
	}
	doCommit := func(b []uint64) error {
		if !strMode {
			return e.CommitBatch(b)
		}
		s := make([]string, len(b))
		for i, k := range b {
			s[i] = str(k)
		}
		return e.CommitStringBatch(s)
	}
	contains := func(eng *Engine, k uint64) bool {
		if strMode {
			return eng.ContainsString(str(k))
		}
		return eng.Contains(k)
	}

	// An error is lawful iff it was scheduled by the FaultFS or is the
	// engine's sticky consequence of an earlier scheduled fault.
	scheduled := func(err error) bool {
		return errors.Is(err, vfs.ErrInjected) ||
			errors.Is(err, ErrPoisoned) || errors.Is(err, ErrDegraded)
	}
	requireScheduled := func(op string, err error) {
		t.Helper()
		if !scheduled(err) {
			t.Fatalf("%s: unscheduled error %v", op, err)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	acked := map[uint64]bool{}     // durably acknowledged — must survive
	attempted := map[uint64]bool{} // every key ever handed to the engine
	var unsynced []uint64          // appended, not yet covered by an ack

	batch := func() []uint64 {
		n := 1 + rng.Intn(40)
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
		}
	}

	steps := 30 + rng.Intn(30)
	for i := 0; i < steps; i++ {
		switch rng.Intn(11) {
		case 0, 1, 2, 3: // Append: not durable until a Sync/Flush ack
			b := batch()
			if err := doAppend(b); err != nil {
				requireScheduled("append", err)
			} else {
				unsynced = append(unsynced, b...)
			}
		case 4, 5, 6: // Commit: durable on nil return
			b := batch()
			if err := doCommit(b); err != nil {
				requireScheduled("commit", err)
			} else {
				ack(b)
			}
		case 7: // Sync: acks everything appended so far
			if err := e.Sync(); err != nil {
				requireScheduled("sync", err)
			} else {
				ack(unsynced)
				unsynced = unsynced[:0]
			}
		case 8: // Flush: segment durability for the whole pending set
			if err := e.Flush(); err != nil {
				requireScheduled("flush", err)
			} else {
				ack(unsynced)
				unsynced = unsynced[:0]
			}
		case 9:
			if err := e.Compact(); err != nil {
				requireScheduled("compact", err)
			}
		case 10: // Drain: serves the pending set, so its barrier acked it
			if err := e.Drain(); err != nil {
				requireScheduled("drain", err)
			} else {
				ack(unsynced)
				unsynced = unsynced[:0]
				for k := range acked {
					if !contains(e, k) {
						t.Fatalf("acked key %d not served after a drain", k)
					}
				}
			}
		}
	}

	// A refused reservation is counted and changes nothing else: the log is
	// appended to as logs always were. So a trial whose only faults were
	// refusals saw no error and ends healthy.
	refused = ffs.InjectedFor(vfs.OpAllocate)
	if got := e.m.ioErrors.Load(); got < refused {
		t.Fatalf("%d log reservations refused, lix_storage_io_errors_total = %d", refused, got)
	}
	if h, cause := e.Health(); ffs.Injected() == refused && h != HealthOK {
		t.Fatalf("health = %v (%v) after nothing but %d refused log reservations", h, cause, refused)
	}

	// Close may fail mid-flush under the schedule; only unscheduled
	// failures are bugs. A successful close flushes the pending set, which
	// may durably land appended-but-unacked keys — allowed (they are in
	// attempted, just never required).
	if err := e.Close(); err != nil {
		requireScheduled("close", err)
	}

	// Clean reopen: recovery must reconstruct a state serving
	// acked ⊆ served ⊆ attempted with an exact Len. The reopen goes through
	// a second FaultFS carrying a ReadCorrupt-only schedule — disarmed for
	// now, so open and the recovery assertions below see honest bytes; the
	// scrub phase at the end arms it.
	ffs.Disarm()
	rffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{Seed: seed, ReadCorrupt: 1})
	rffs.Disarm()
	re, err := Open(dir, Options{NoCompactor: true, StringKeys: strMode, FS: rffs})
	if err != nil {
		t.Fatalf("reopen after fault schedule failed: %v", err)
	}
	defer re.Close()
	if h, herr := re.Health(); h != HealthOK || herr != nil {
		t.Fatalf("reopened engine health = %v (%v), want ok", h, herr)
	}
	for k := range acked {
		if !contains(re, k) {
			t.Fatalf("acked key %d lost across the fault schedule", k)
		}
	}
	var served int
	if strMode {
		for _, s := range re.KeysStrings() {
			var k uint64
			if n, err := fmt.Sscanf(s, "k%016x", &k); n != 1 || err != nil || !attempted[k] {
				t.Fatalf("reopen serves invented key %q", s)
			}
			served++
		}
	} else {
		for _, k := range re.Keys() {
			if !attempted[k] {
				t.Fatalf("reopen serves invented key %d", k)
			}
			served++
		}
	}
	if re.Len() != served {
		t.Fatalf("Len=%d but %d keys enumerated", re.Len(), served)
	}
	// Probes from a disjoint domain must miss.
	for i := 0; i < 200; i++ {
		k := 2_000_000_000 + uint64(rng.Int63n(1_000_000_000))
		if contains(re, k) {
			t.Fatalf("phantom key %d after recovery", k)
		}
	}

	// Scrub phase: arm ReadCorrupt=1 so every segment file re-read comes
	// back with one bit flipped. Scrub must flag every live segment as rotted
	// and heal each from its in-memory image; the heal writes go through the
	// same FaultFS but only reads are scheduled, so they land honestly.
	segs := re.Stats().Segments
	rffs.Arm()
	checked, healed, serr := re.Scrub()
	if serr != nil {
		t.Fatalf("scrub under ReadCorrupt returned error: %v", serr)
	}
	if checked != segs || healed != checked {
		t.Fatalf("scrub under ReadCorrupt: checked=%d healed=%d, want both %d", checked, healed, segs)
	}
	if segs > 0 && rffs.Injected() == 0 {
		t.Fatal("ReadCorrupt schedule never fired during scrub")
	}
	// Heals must be durable: with corruption disarmed, a second pass reads
	// the rewritten files clean and heals nothing.
	rffs.Disarm()
	if checked, healed, serr = re.Scrub(); serr != nil || checked != segs || healed != 0 {
		t.Fatalf("post-heal scrub: checked=%d healed=%d err=%v, want %d/0/nil", checked, healed, serr, segs)
	}
	// And the healed engine still serves the durability contract.
	for k := range acked {
		if !contains(re, k) {
			t.Fatalf("acked key %d lost after scrub heal", k)
		}
	}
	return refused
}
