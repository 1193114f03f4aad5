// Package vfs is the storage engine's filesystem seam: a small interface
// covering exactly the operations the durability layer performs — open,
// read, rename, remove, list, the two fsync flavors (file and directory)
// and block reservation — with a passthrough OS implementation, Discard (a
// filesystem that writes nowhere: the ground an in-memory store runs the
// engine on) and a deterministic seeded fault injector (fault.go).
//
// The seam exists so the failure model of internal/storage is *testable*:
// every fsync error, short write, ENOSPC, torn rename, and read corruption
// the disk can produce is producible on demand, byte-deterministically,
// from a seed. Production code pays one interface dispatch per filesystem
// call — noise against the syscall underneath. The benchmark module's
// vfs.wrapper_overhead_pct rung prices one such indirection: a durable
// commit through a wrapping FS over the same commit on the bare one.
package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
)

// File is an open file handle: the subset of *os.File the storage engine
// uses. Write appends at the current offset (engine files are written
// sequentially); ReadAt is the positional read of recovery and scrub
// paths; Sync is fsync.
type File interface {
	io.Writer
	io.ReaderAt
	// Sync flushes OS-buffered writes to stable storage (fsync).
	Sync() error
	// Allocate reserves the first size bytes by writing zeros from the end
	// of the file up to size; a file already that long is left alone. The
	// write offset does not move and nothing is synced: the next Sync makes
	// the zeros durable with whatever else was written. Once it has, a
	// write inside the range overwrites allocated, written blocks, so its
	// fsync has no block allocation, size change or extent conversion to
	// journal. fallocate(2) would not do: it leaves unwritten extents, and
	// on ext4 the first write to each block converts its extent, which is a
	// journal commit on that write's fsync. A failure (ENOSPC) is returned
	// and leaves the file usable, at most longer by zeros.
	Allocate(size int64) error
	Close() error
}

// FS is the filesystem interface the storage engine runs on. All paths are
// OS paths (the engine composes them with path/filepath). Implementations
// must be safe for concurrent use.
type FS interface {
	// OpenFile opens a file with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile reads the whole file, os.ReadFile semantics.
	ReadFile(name string) ([]byte, error)
	// Rename atomically renames oldpath to newpath (the commit point of
	// segment publication).
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]os.DirEntry, error)
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so a just-renamed entry is durable.
	SyncDir(dir string) error
}

// CommitFile writes data to name crash-safely: written and fsynced as
// name+".tmp", renamed over name, the directory fsynced. Until the rename
// name keeps what it held; a temp a failure leaves behind is the caller's to
// sweep. An error the caller cannot act on — a close after a failed write,
// the temp's removal after a failed rename — goes to ignored, if not nil.
func CommitFile(fs FS, name string, data []byte, ignored func(ctx string, err error)) error {
	tmp := name + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	} else if cerr != nil && ignored != nil {
		ignored("close after a failed write", cerr)
	}
	if err != nil {
		return err
	}
	if err := fs.Rename(tmp, name); err != nil {
		if rerr := fs.Remove(tmp); rerr != nil && ignored != nil {
			ignored("remove temp after a failed rename", rerr)
		}
		return err
	}
	return fs.SyncDir(filepath.Dir(name))
}

// OS is the passthrough implementation: every call maps 1:1 onto the os
// package. This is the engine's default filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// osFile is *os.File plus Allocate, which the os package does not offer.
type osFile struct{ *os.File }

// zeros is what Allocate writes. It is shared and never written to, so a
// reservation allocates no memory.
var zeros [64 << 10]byte

func (f osFile) Allocate(size int64) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	for off := fi.Size(); off < size; {
		n, err := f.WriteAt(zeros[:min(size-off, int64(len(zeros)))], off)
		if err != nil {
			return err
		}
		off += int64(n)
	}
	return nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}

// ErrDiscarded is what every read on Discard fails with: the filesystem
// kept none of the bytes written to it, so a read back can serve neither
// stale nor empty data.
var ErrDiscarded = errors.New("vfs: read back from a filesystem that keeps nothing")

// Discard is the filesystem that writes nowhere: opening, writing,
// reserving, syncing, closing, renaming, removing and creating directories
// all succeed and keep nothing, a directory lists empty, and every read
// back (ReadFile, ReadAt) fails with ErrDiscarded. An engine opened on it
// finds nothing to recover and serves from memory alone.
var Discard FS = discardFS{}

type discardFS struct{}

func (discardFS) OpenFile(string, int, os.FileMode) (File, error) { return discardFile{}, nil }

func (discardFS) ReadFile(name string) ([]byte, error) {
	return nil, &os.PathError{Op: "read", Path: name, Err: ErrDiscarded}
}

func (discardFS) Rename(string, string) error           { return nil }
func (discardFS) Remove(string) error                   { return nil }
func (discardFS) ReadDir(string) ([]os.DirEntry, error) { return nil, nil }
func (discardFS) MkdirAll(string, os.FileMode) error    { return nil }
func (discardFS) SyncDir(string) error                  { return nil }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error)       { return len(p), nil }
func (discardFile) ReadAt([]byte, int64) (int, error) { return 0, ErrDiscarded }
func (discardFile) Sync() error                       { return nil }
func (discardFile) Allocate(int64) error              { return nil }
func (discardFile) Close() error                      { return nil }
