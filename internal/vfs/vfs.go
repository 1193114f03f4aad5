// Package vfs is the storage engine's filesystem seam: a small interface
// covering exactly the operations the durability layer performs — open,
// read, rename, remove, list, the two fsync flavors (file and directory)
// and block reservation — with a passthrough OS implementation and a
// deterministic seeded fault injector (fault.go).
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
	// Allocate reserves disk blocks for the first size bytes and extends the
	// file to size if it is shorter; the new bytes read as zero and the
	// write offset does not move. An fsync of a write inside the reserved
	// range then has no block allocation or size change to journal. Where
	// the platform or the filesystem cannot reserve it does nothing and
	// returns nil; a real failure (ENOSPC) is returned and leaves the file
	// usable.
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

// osFile is *os.File plus Allocate, which the os package does not offer
// (alloc_linux.go, alloc_other.go).
type osFile struct{ *os.File }

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
