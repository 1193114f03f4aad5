//go:build linux

package storage

import (
	"errors"
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// The FIEMAP ioctl's request, flags and structs (linux/fs.h, linux/fiemap.h).
const (
	fsIOCFiemap           = 0xc020660b // _IOWR('f', 11, struct fiemap)
	fiemapFlagSync        = 0x1
	fiemapExtentLast      = 0x1
	fiemapExtentUnwritten = 0x800
)

type fiemapExtent struct {
	Logical, Physical, Length uint64
	_                         [2]uint64
	Flags                     uint32
	_                         [3]uint32
}

type fiemap struct {
	Start, Length           uint64
	Flags, Mapped, Count, _ uint32
	Extents                 [32]fiemapExtent
}

// fileExtents returns the extents mapping path's blocks, synced first. It
// skips the test where the filesystem does not answer FIEMAP.
func fileExtents(t *testing.T, path string) []fiemapExtent {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []fiemapExtent
	for start := uint64(0); ; {
		m := fiemap{Start: start, Length: ^uint64(0) - start, Flags: fiemapFlagSync, Count: uint32(len(fiemap{}.Extents))}
		_, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIOCFiemap, uintptr(unsafe.Pointer(&m)))
		if errors.Is(errno, syscall.EOPNOTSUPP) || errors.Is(errno, syscall.ENOTTY) {
			t.Skipf("FIEMAP is not supported here: %v", errno)
		}
		if errno != 0 {
			t.Fatalf("FIEMAP: %v", errno)
		}
		if m.Mapped == 0 {
			return out
		}
		got := m.Extents[:m.Mapped]
		out = append(out, got...)
		last := got[len(got)-1]
		if last.Flags&fiemapExtentLast != 0 {
			return out
		}
		start = last.Logical + last.Length
	}
}

// TestCommitLeavesNoUnwrittenExtents pins how a log is reserved: its
// reserved range is written, not fallocated. After appends and commits that
// cross an extent boundary, every byte of the reservation lies in a mapped
// extent and none is unwritten. An unwritten extent is what fallocate(2)
// leaves, and ext4 journals its conversion on the first write to each of its
// blocks — a journal commit inside the fsync of a commit.
func TestCommitLeavesNoUnwrittenExtents(t *testing.T) {
	e := openT(t, t.TempDir(), Options{NoCompactor: true})
	defer e.Close()
	if err := e.Commit(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	long := make([]uint64, walExtent/9) // 9-byte varints: past the first extent
	for i := range long {
		long[i] = 1<<63 + uint64(i)
	}
	if err := e.AppendBatch(long); err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(4); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	path, size, reserved := e.wal.path, e.wal.size, e.wal.reserved
	e.mu.Unlock()
	if size <= walExtent || reserved != 2*walExtent {
		t.Fatalf("log of %d frame bytes has %d reserved, want two %d-byte extents", size, reserved, walExtent)
	}
	var covered uint64
	for _, x := range fileExtents(t, path) {
		if x.Logical >= uint64(reserved) {
			break
		}
		if x.Logical != covered {
			t.Fatalf("reserved bytes [%d, %d) are a hole", covered, x.Logical)
		}
		if x.Flags&fiemapExtentUnwritten != 0 {
			t.Fatalf("extent [%d, %d) of the %d reserved bytes is unwritten (flags %#x)", x.Logical, x.Logical+x.Length, reserved, x.Flags)
		}
		covered = x.Logical + x.Length
	}
	if covered < uint64(reserved) {
		t.Fatalf("extents map %d of the %d reserved bytes", covered, reserved)
	}
}
