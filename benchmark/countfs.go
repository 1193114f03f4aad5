package main

// countFS wraps the filesystem seam (serve.Options.FS). It passes every call
// through, counts and times writes, reads and fsyncs per file class, and
// remembers how much of each file an fsync has covered, which is what a crash
// would leave behind: crashCopy reproduces exactly that in another directory.

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// File classes: the write-ahead log, and everything else the engine writes,
// which is segment files and their temporaries.
const (
	classWAL = iota
	classSegment
	numFileClasses
)

func fileClass(path string) int {
	if strings.Contains(filepath.Base(path), ".seg") {
		return classSegment
	}
	return classWAL
}

type countFS struct {
	inner fsFS

	writeCalls   [numFileClasses]atomic.Int64
	bytesWritten [numFileClasses]atomic.Int64
	bytesRead    atomic.Int64
	fsyncs       atomic.Int64 // file and directory fsyncs

	mu      sync.Mutex
	files   map[string]*fileState // by path; guarded by mu
	syncDur []time.Duration       // one per file fsync; guarded by mu
}

// fileState is what is known to be on stable storage for one path.
type fileState struct {
	written atomic.Int64
	synced  atomic.Int64 // length covered by the last fsync; -1 before any
}

func newCountFS(inner fsFS) *countFS {
	return &countFS{inner: inner, files: make(map[string]*fileState)}
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (fsFile, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	st := c.files[name]
	if st == nil || flag&os.O_TRUNC != 0 {
		st = &fileState{}
		st.synced.Store(-1)
		c.files[name] = st
	}
	c.mu.Unlock()
	return &countFile{fsFile: f, fs: c, st: st, class: fileClass(name)}, nil
}

func (c *countFS) ReadFile(name string) ([]byte, error) {
	b, err := c.inner.ReadFile(name)
	c.bytesRead.Add(int64(len(b)))
	return b, err
}

func (c *countFS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	if st, ok := c.files[oldpath]; ok {
		delete(c.files, oldpath)
		c.files[newpath] = st
	}
	return nil
}

func (c *countFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.inner.Remove(name); err != nil {
		return err
	}
	delete(c.files, name)
	return nil
}

func (c *countFS) ReadDir(name string) ([]os.DirEntry, error) { return c.inner.ReadDir(name) }

func (c *countFS) MkdirAll(path string, perm os.FileMode) error { return c.inner.MkdirAll(path, perm) }

func (c *countFS) SyncDir(dir string) error {
	c.fsyncs.Add(1)
	return c.inner.SyncDir(dir)
}

type countFile struct {
	fsFile
	fs    *countFS
	st    *fileState
	class int
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.fsFile.Write(p)
	f.fs.writeCalls[f.class].Add(1)
	f.fs.bytesWritten[f.class].Add(int64(n))
	f.st.written.Add(int64(n))
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.fsFile.ReadAt(p, off)
	f.fs.bytesRead.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	// Bytes written while the fsync runs may or may not be covered by it;
	// only those written before it started are known to be.
	covered := f.st.written.Load()
	t0 := time.Now()
	err := f.fsFile.Sync()
	d := time.Since(t0)
	if err != nil {
		return err
	}
	for {
		old := f.st.synced.Load()
		if covered <= old || f.st.synced.CompareAndSwap(old, covered) {
			break
		}
	}
	f.fs.fsyncs.Add(1)
	f.fs.mu.Lock()
	f.fs.syncDur = append(f.fs.syncDur, d)
	f.fs.mu.Unlock()
	return nil
}

// fsCounts is a point-in-time copy of the counters.
type fsCounts struct {
	writeCalls, bytesWritten [numFileClasses]int64
	bytesRead, fsyncs        int64
}

func (c *countFS) counts() fsCounts {
	var out fsCounts
	for i := 0; i < numFileClasses; i++ {
		out.writeCalls[i] = c.writeCalls[i].Load()
		out.bytesWritten[i] = c.bytesWritten[i].Load()
	}
	out.bytesRead, out.fsyncs = c.bytesRead.Load(), c.fsyncs.Load()
	return out
}

// syncDurations is how long every file fsync so far took.
func (c *countFS) syncDurations() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.syncDur)
}

func (a fsCounts) totalWritten() int64 {
	return a.bytesWritten[classWAL] + a.bytesWritten[classSegment]
}

// crashCopy writes into dst what a power loss at this instant would leave of
// the files under src: every file cut to the length its last fsync covered,
// files never fsynced dropped, completed renames and removes honoured. Renames,
// removes and truncating opens wait while the copy runs; appends and fsyncs do
// not, and the copy ignores them because it fixes each length first.
func (c *countFS) crashCopy(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil { // a crash leaves nothing but what is copied below
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	prefix := filepath.Clean(src) + string(filepath.Separator)
	for path, st := range c.files {
		n := st.synced.Load()
		if !strings.HasPrefix(path, prefix) || n < 0 {
			continue
		}
		if err := copyPrefix(path, filepath.Join(dst, path[len(prefix):]), n); err != nil {
			return err
		}
	}
	return nil
}

func copyPrefix(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, in, n); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
