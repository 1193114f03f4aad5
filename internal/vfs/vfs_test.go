package vfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
)

// TestOSPassthrough exercises every FS method against a real directory:
// the passthrough must behave exactly like the os package, including the
// rename-commit and dir-sync steps the storage engine's crash safety
// depends on.
func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	if err := OS.MkdirAll(filepath.Join(dir, "a", "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "a", "b", "f.tmp")
	f, err := OS.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.ReadAt(buf, 6); err != nil || string(buf) != "world" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "a", "b", "f.dat")
	if err := OS.Rename(p, final); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(filepath.Join(dir, "a", "b")); err != nil {
		t.Fatal(err)
	}
	data, err := OS.ReadFile(final)
	if err != nil || string(data) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	ents, err := OS.ReadDir(filepath.Join(dir, "a", "b"))
	if err != nil || len(ents) != 1 || ents[0].Name() != "f.dat" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := OS.Remove(final); err != nil {
		t.Fatal(err)
	}
	if _, err := OS.ReadFile(final); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist after Remove, got %v", err)
	}
}

// TestOSAllocate holds the passthrough's Allocate to its contract: on Linux
// the file grows to the reserved size, what was written stays, the rest
// reads as zero, and the next write lands where the last one ended — not at
// the new end of the file; a smaller reservation never shrinks the file.
// Everywhere else it succeeds and changes nothing.
func TestOSAllocate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reserved")
	f, err := OS.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Allocate(64); err != nil {
		t.Fatalf("Allocate(64): %v", err)
	}
	if _, err := f.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	if err := f.Allocate(16); err != nil {
		t.Fatalf("Allocate(16) on a longer file: %v", err)
	}
	want := []byte("hello world!")
	if runtime.GOOS == "linux" {
		want = append(want, make([]byte, 64-len(want))...)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after Allocate and a write the file holds %q (err %v), want %q", got, err, want)
	}
}

// TestFaultDeterminism replays the same single-goroutine operation
// sequence against two injectors with the same seed: the injected faults
// must land on the same operations.
func TestFaultDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		dir := t.TempDir()
		ffs := NewFaultFS(OS, FaultConfig{Seed: seed, SyncErr: 0.3, WriteENOSPC: 0.2, RenameErr: 0.3, RemoveErr: 0.3})
		var trace []string
		rec := func(step string, err error) {
			if errors.Is(err, ErrInjected) {
				trace = append(trace, step)
			} else if err != nil && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: unscheduled error %v", step, err)
			}
		}
		for i := 0; i < 40; i++ {
			p := filepath.Join(dir, "f")
			f, err := ffs.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				rec("open", err)
				continue
			}
			_, werr := f.Write([]byte("payload"))
			rec("write", werr)
			rec("sync", f.Sync())
			f.Close()
			rec("rename", ffs.Rename(p, p+".x"))
			rec("remove-a", ffs.Remove(p+".x"))
			rec("remove-b", ffs.Remove(p))
		}
		return trace
	}
	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("schedule injected no faults; probabilities too low for the test to mean anything")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different fault counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, diverging schedule at %d: %q vs %q", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced an identical fault schedule")
	}
}

// TestTornWriteLeavesPrefix forces the torn-write fault and checks its
// contract: a strict prefix of the buffer reaches the file and the write
// reports an injected error.
func TestTornWriteLeavesPrefix(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, FaultConfig{Seed: 7, TornWrite: 1.0})
	p := filepath.Join(dir, "torn")
	f, err := ffs.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 100)
	n, werr := f.Write(payload)
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("want injected write error, got %v", werr)
	}
	if n < 1 || n >= len(payload) {
		t.Fatalf("torn write persisted %d of %d bytes; want a strict non-empty prefix", n, len(payload))
	}
	f.Close()
	ffs.Disarm()
	data, err := ffs.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != n || !bytes.Equal(data, payload[:n]) {
		t.Fatalf("on-disk bytes = %d, want the %d-byte prefix", len(data), n)
	}
	if ffs.InjectedFor(OpWrite) != 1 {
		t.Fatalf("injected write count = %d, want 1", ffs.InjectedFor(OpWrite))
	}
}

// TestENOSPCAndHook checks that the ENOSPC fault satisfies
// errors.Is(err, syscall.ENOSPC) — the engine's degraded-mode trigger —
// and that a crash-point hook fires exactly where installed, disarm
// silences everything, and injection counts add up.
func TestENOSPCAndHook(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS, FaultConfig{Seed: 1, WriteENOSPC: 1.0})
	f, err := ffs.OpenFile(filepath.Join(dir, "full"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := f.Write([]byte("x")); !errors.Is(werr, syscall.ENOSPC) || !errors.Is(werr, ErrInjected) {
		t.Fatalf("want injected ENOSPC, got %v", werr)
	}
	f.Close()

	// A refused reservation is the same errno on its own op class, and
	// leaves the file as it was.
	affs := NewFaultFS(OS, FaultConfig{Seed: 1, AllocENOSPC: 1.0})
	af, err := affs.OpenFile(filepath.Join(dir, "reserved"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if aerr := af.Allocate(1 << 16); !errors.Is(aerr, syscall.ENOSPC) || !errors.Is(aerr, ErrInjected) {
		t.Fatalf("want injected ENOSPC from Allocate, got %v", aerr)
	}
	if _, werr := af.Write([]byte("x")); werr != nil {
		t.Fatalf("write after a refused reservation: %v", werr)
	}
	af.Close()
	if fi, err := os.Stat(filepath.Join(dir, "reserved")); err != nil || fi.Size() != 1 {
		t.Fatalf("file behind a refused reservation is %v bytes (err %v), want the 1 written", fi.Size(), err)
	}
	if affs.InjectedFor(OpAllocate) != 1 || affs.Injected() != 1 || OpAllocate.String() != "allocate" {
		t.Fatalf("injected %d %s faults of %d, want 1 of 1", affs.InjectedFor(OpAllocate), OpAllocate, affs.Injected())
	}

	boom := errors.New("crash point")
	ffs.SetHook(func(op Op, path string) error {
		if op == OpRemove && filepath.Base(path) == "target" {
			return boom
		}
		return nil
	})
	if err := ffs.Remove(filepath.Join(dir, "other")); errors.Is(err, ErrInjected) {
		t.Fatalf("hook fired on the wrong path: %v", err)
	}
	err = ffs.Remove(filepath.Join(dir, "target"))
	if !errors.Is(err, ErrInjected) || !errors.Is(err, boom) {
		t.Fatalf("want hook-injected error, got %v", err)
	}
	ffs.SetHook(nil)

	ffs.Disarm()
	f, err = ffs.OpenFile(filepath.Join(dir, "full"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := f.Write([]byte("x")); werr != nil {
		t.Fatalf("disarmed write failed: %v", werr)
	}
	f.Close()
	if got := ffs.Injected(); got != 2 {
		t.Fatalf("total injected = %d, want 2 (one ENOSPC, one hook)", got)
	}
}

// TestReadCorruptFlipsOneBit checks the silent-rot fault: ReadFile returns
// nil error with exactly one bit flipped.
func TestReadCorruptFlipsOneBit(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "rot")
	orig := bytes.Repeat([]byte{0x55}, 64)
	if err := os.WriteFile(p, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := NewFaultFS(OS, FaultConfig{Seed: 3, ReadCorrupt: 1.0})
	data, err := ffs.ReadFile(p)
	if err != nil {
		t.Fatalf("silent corruption must not error: %v", err)
	}
	diff := 0
	for i := range data {
		for b := 0; b < 8; b++ {
			if (data[i]^orig[i])&(1<<b) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt read flipped %d bits, want exactly 1", diff)
	}
	// The file itself is untouched; only the returned copy rots.
	ondisk, _ := os.ReadFile(p)
	if !bytes.Equal(ondisk, orig) {
		t.Fatal("ReadCorrupt modified the file on disk")
	}
}
