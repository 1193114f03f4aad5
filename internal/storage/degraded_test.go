package storage

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"learnedindex/internal/vfs"
)

// TestPoisonedEngineFailStop pins the fail-stop contract: after a WAL
// fsync failure the engine poisons — every durable operation returns the
// sticky first cause wrapped in ErrPoisoned, even after the fault itself
// clears (the fsyncgate lesson: a post-failure fsync ack cannot be
// trusted) — while reads keep serving, and a reopen recovers to HealthOK
// with every previously acked key intact.
func TestPoisonedEngineFailStop(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
	e, err := Open(dir, Options{NoCompactor: true, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	ffs.SetHook(func(op vfs.Op, path string) error {
		if op == vfs.OpSync && strings.HasPrefix(filepath.Base(path), "wal") {
			return errors.New("fsync lost to the page cache")
		}
		return nil
	})
	err = e.Commit(10)
	if err == nil {
		t.Fatal("Commit acked through a failed fsync")
	}
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("first failure should carry the injected cause, got %v", err)
	}

	// The fault clears — the poison must NOT.
	ffs.SetHook(nil)
	if h, cause := e.Health(); h != HealthFailed || !errors.Is(cause, ErrPoisoned) {
		t.Fatalf("health = %v (%v), want failed/ErrPoisoned", h, cause)
	}
	for name, op := range map[string]func() error{
		"append": func() error { return e.Append(20) },
		"commit": func() error { return e.Commit(21) },
		"sync":   e.Sync,
		"flush":  e.Flush,
	} {
		if err := op(); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("%s on a poisoned engine = %v, want ErrPoisoned", name, err)
		}
	}
	// Reads keep serving the flushed keys.
	for _, k := range []uint64{1, 2, 3} {
		if !e.Contains(k) {
			t.Fatalf("poisoned engine stopped serving flushed key %d", k)
		}
	}
	e.Close() // flush inside Close fails with the poison error; expected

	// Recovery is a reopen: WAL replay + segment validation.
	re, err := Open(dir, Options{NoCompactor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if h, cause := re.Health(); h != HealthOK || cause != nil {
		t.Fatalf("reopened health = %v (%v), want ok", h, cause)
	}
	for _, k := range []uint64{1, 2, 3} {
		if !re.Contains(k) {
			t.Fatalf("acked key %d lost across poison+reopen", k)
		}
	}
}

// TestENOSPCDegradesToReadOnly pins graceful degradation: when the
// segment plane hits ENOSPC (never retried — a full disk does not heal in
// milliseconds), the engine turns read-only instead of failing: writes
// are refused wrapped in ErrDegraded, every acked key keeps serving (the
// frozen WAL of the failed flush stays on disk and scan-visible), and a
// reopen with space available recovers everything.
func TestENOSPCDegradesToReadOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
	e, err := Open(dir, Options{NoCompactor: true, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(i) * 7
	}
	if err := e.CommitBatch(keys); err != nil {
		t.Fatal(err)
	}

	ffs.SetHook(func(op vfs.Op, path string) error {
		if op == vfs.OpWrite && strings.HasPrefix(filepath.Base(path), "seg-") {
			return syscall.ENOSPC
		}
		return nil
	})
	err = e.Flush()
	if err == nil {
		t.Fatal("Flush succeeded with a full disk")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("flush error should carry ENOSPC, got %v", err)
	}
	if h, cause := e.Health(); h != HealthDegraded || !errors.Is(cause, ErrDegraded) {
		t.Fatalf("health = %v (%v), want degraded/ErrDegraded", h, cause)
	}
	if err := e.Append(999_999); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append on a degraded engine = %v, want ErrDegraded", err)
	}
	// Every acked key stays visible on the scan plane: the failed flush's
	// snapshot remains the flushing delta (Contains is segment-only by
	// contract) and its frozen WAL stays on disk.
	if got := e.CountRange(0, ^uint64(0), true); got != len(keys) {
		t.Fatalf("degraded engine serves %d keys on the scan plane, want %d", got, len(keys))
	}
	sn := pinAll[uint64](e)
	for _, k := range keys {
		if containsBatchIn(sn.segs, &u64Ops, []uint64{k}, nil) == 0 && !slices.Contains(sn.keys, k) {
			sn.release()
			t.Fatalf("degraded engine dropped acked key %d", k)
		}
	}
	sn.release()

	ffs.SetHook(nil) // space freed
	e.Close()        // close's flush is still refused (degradation is sticky)
	re, err := Open(dir, Options{NoCompactor: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if h, cause := re.Health(); h != HealthOK || cause != nil {
		t.Fatalf("reopened health = %v (%v), want ok", h, cause)
	}
	if re.Len() != len(keys) {
		t.Fatalf("Len=%d after ENOSPC recovery, want %d", re.Len(), len(keys))
	}
	for _, k := range keys {
		if !re.Contains(k) {
			t.Fatalf("acked key %d lost across ENOSPC+reopen", k)
		}
	}
}

// TestQuarantineThenReopenKeepsAckedKeys pins the quarantine path end to
// end: a flush whose frozen-WAL removal failed (so the log outlives its
// segment), then on-disk rot of the segment, then a reopen. Open must
// quarantine the corrupt segment file (rename to *.quarantine) rather
// than fail, and the surviving WAL replay must restore every acked key
// with an exact Len.
func TestQuarantineThenReopenKeepsAckedKeys(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
	e, err := Open(dir, Options{NoCompactor: true, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ffs.SetHook(func(op vfs.Op, path string) error {
		if op == vfs.OpRemove && strings.HasPrefix(filepath.Base(path), "wal-") {
			return errors.New("frozen wal pinned")
		}
		return nil
	})
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i)*13 + 1
	}
	if err := e.CommitBatch(keys); err != nil {
		t.Fatal(err)
	}
	// Flush publishes the segment; the frozen-WAL remove is best-effort
	// and its injected failure must NOT fail the flush.
	if err := e.Flush(); err != nil {
		t.Fatalf("flush failed on a best-effort remove: %v", err)
	}
	ffs.SetHook(nil)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xff // rot a body byte: CRC must catch it
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{NoCompactor: true})
	if err != nil {
		t.Fatalf("reopen over a corrupt segment should quarantine, not fail: %v", err)
	}
	defer re.Close()
	quar, _ := filepath.Glob(filepath.Join(dir, "seg-*"+quarantineSuffix))
	if len(quar) != 1 {
		t.Fatalf("want exactly one quarantined segment, got %v", quar)
	}
	if re.Len() != len(keys) {
		t.Fatalf("Len=%d after quarantine+replay, want %d", re.Len(), len(keys))
	}
	for _, k := range keys {
		if !re.Contains(k) {
			t.Fatalf("acked key %d lost to quarantine", k)
		}
	}
}

// TestScrubHealsBitRot pins the self-healing path: rot a live segment
// file on disk, and Scrub must detect the checksum mismatch and rewrite
// the file from the in-memory image — atomically, so the repaired engine
// reopens clean with zero quarantines.
func TestScrubHealsBitRot(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, Options{NoCompactor: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = uint64(i)*3 + 2
	}
	if err := e.CommitBatch(keys); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	checked, healed, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if checked != 1 || healed != 1 {
		t.Fatalf("scrub checked=%d healed=%d, want 1/1", checked, healed)
	}
	// A second pass over the healed file finds nothing to do.
	if _, healed, err = e.Scrub(); err != nil || healed != 0 {
		t.Fatalf("second scrub healed=%d err=%v, want 0/nil", healed, err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{NoCompactor: true})
	if err != nil {
		t.Fatalf("reopen after scrub heal: %v", err)
	}
	defer re.Close()
	if quar, _ := filepath.Glob(filepath.Join(dir, "seg-*"+quarantineSuffix)); len(quar) != 0 {
		t.Fatalf("healed engine still quarantined %v", quar)
	}
	if re.Len() != len(keys) {
		t.Fatalf("Len=%d after heal+reopen, want %d", re.Len(), len(keys))
	}
	for _, k := range keys {
		if !re.Contains(k) {
			t.Fatalf("key %d lost across heal+reopen", k)
		}
	}
}

// TestWALReservationFailureFallsBack pins the one failure that is not one:
// when the filesystem refuses to reserve a log's extent (ENOSPC), the log is
// appended to the way logs always were — the file ends where its frames end
// — the refusal is counted in lix_storage_io_errors_total, and the engine
// neither poisons nor degrades: commits keep being acknowledged, flushes
// keep rotating, and a reopen serves every key. Both key modes, since each
// names and frames its logs itself.
func TestWALReservationFailureFallsBack(t *testing.T) {
	for _, strMode := range []bool{false, true} {
		strMode := strMode
		t.Run(map[bool]string{false: "uint64", true: "string"}[strMode], func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(vfs.OS, vfs.FaultConfig{})
			ffs.SetHook(func(op vfs.Op, path string) error {
				if op == vfs.OpAllocate {
					return syscall.ENOSPC
				}
				return nil
			})
			e := openT(t, dir, Options{NoCompactor: true, StringKeys: strMode, FS: ffs})
			commit := func(lo, hi uint64) {
				t.Helper()
				var err error
				if strMode {
					err = e.CommitStringBatch(oracleStrings(lo, hi))
				} else {
					err = e.CommitBatch(oracleUints(lo, hi))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			commit(0, 100)
			if err := e.Flush(); err != nil { // the next log's reservation is refused too
				t.Fatal(err)
			}
			commit(100, 150)
			e.mu.Lock()
			logPath, logSize := e.wal.path, e.wal.size
			e.mu.Unlock()
			if fi, err := os.Stat(logPath); err != nil || fi.Size() != logSize {
				t.Fatalf("log file is %v bytes (err %v) behind a refused reservation, want its %d frame bytes", fi.Size(), err, logSize)
			}
			refused := ffs.InjectedFor(vfs.OpAllocate)
			if refused != 2 || ffs.Injected() != refused {
				t.Fatalf("%d reservations refused of %d faults injected, want 2 of 2", refused, ffs.Injected())
			}
			if got := e.Metrics().Counter("lix_storage_io_errors_total"); got != refused {
				t.Fatalf("lix_storage_io_errors_total = %d, want the %d refused reservations", got, refused)
			}
			if h, cause := e.Health(); h != HealthOK {
				t.Fatalf("health = %v (%v) after refused reservations, want ok", h, cause)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			re := openT(t, dir, Options{NoCompactor: true, StringKeys: strMode})
			defer re.Close()
			if re.Len() != 150 {
				t.Fatalf("reopen serves %d keys, want 150", re.Len())
			}
		})
	}
}

func oracleUints(lo, hi uint64) []uint64 {
	b := make([]uint64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		b = append(b, k*31)
	}
	return b
}

func oracleStrings(lo, hi uint64) []string {
	b := make([]string, 0, hi-lo)
	for _, k := range oracleUints(lo, hi) {
		b = append(b, oracleStr(k))
	}
	return b
}
