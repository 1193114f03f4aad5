package vfs

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
)

// Op names one filesystem operation class for fault targeting, hooks, and
// injection accounting.
type Op uint8

const (
	OpOpenFile Op = iota
	OpReadFile
	OpReadDir
	OpMkdirAll
	OpRename
	OpRemove
	OpSyncDir
	OpWrite
	OpSync
	OpReadAt
	OpAllocate
	numOps
)

var opNames = [numOps]string{
	"openfile", "readfile", "readdir", "mkdirall", "rename",
	"remove", "syncdir", "write", "sync", "readat", "allocate",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ErrInjected is the sentinel every injected fault wraps: errors.Is
// distinguishes a scheduled fault from a real filesystem failure, so a
// fault-schedule test can assert nothing *un*scheduled went wrong.
var ErrInjected = errors.New("vfs: injected fault")

// FaultConfig is a seeded fault schedule: per-operation-class
// probabilities in [0, 1]. The zero value injects nothing. All draws come
// from one rand.Rand seeded with Seed, consumed in operation order, so a
// single-goroutine caller replays the identical schedule from the same
// seed.
type FaultConfig struct {
	Seed int64

	SyncErr     float64 // file fsync fails (EIO-flavored); durability of buffered bytes unknown
	SyncDirErr  float64 // directory fsync fails after a rename
	WriteENOSPC float64 // write fails entirely with ENOSPC
	TornWrite   float64 // write persists a strict prefix of the buffer, then errors
	AllocENOSPC float64 // block reservation fails with ENOSPC; the file is unchanged
	RenameErr   float64 // rename fails; the old name survives
	RemoveErr   float64 // remove fails; the file survives
	OpenErr     float64 // open/create fails
	ReadErr     float64 // ReadFile/ReadAt fails (EIO-flavored)
	// ReadCorrupt makes ReadFile return the file's bytes with ONE random
	// bit flipped and NO error — silent media corruption, the fault class
	// checksums exist for. Keep it at zero in schedules that assert "no
	// acked key lost": rot of the only durable copy is real data loss.
	ReadCorrupt float64
}

// FaultFS wraps an inner FS and injects faults per a seeded FaultConfig.
// Arm/Disarm gates injection at runtime (the wrapped operations always
// pass through); SetHook installs a deterministic crash-point hook that
// sees every operation before the probabilistic schedule does. Safe for
// concurrent use; with concurrent callers the schedule remains seeded but
// the fault-to-operation assignment follows scheduling order.
type FaultFS struct {
	inner FS
	cfg   FaultConfig

	mu  sync.Mutex
	rng *rand.Rand

	armed    atomic.Bool
	hook     atomic.Pointer[func(op Op, path string) error]
	injected [numOps]atomic.Int64
}

// NewFaultFS wraps inner with the given schedule, armed.
func NewFaultFS(inner FS, cfg FaultConfig) *FaultFS {
	f := &FaultFS{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	f.armed.Store(true)
	return f
}

// Arm enables fault injection; Disarm pauses it (pass-through).
func (f *FaultFS) Arm()    { f.armed.Store(true) }
func (f *FaultFS) Disarm() { f.armed.Store(false) }

// Armed reports whether the schedule is live.
func (f *FaultFS) Armed() bool { return f.armed.Load() }

// SetHook installs (or, with nil, removes) a crash-point hook: it runs
// before every operation while armed, and a non-nil return is injected as
// that operation's error (wrapped in ErrInjected and counted). Hooks give
// tests exact fail-here points — "fail the Remove of wal-*.log once" —
// independent of the probabilistic schedule.
func (f *FaultFS) SetHook(h func(op Op, path string) error) {
	if h == nil {
		f.hook.Store(nil)
		return
	}
	f.hook.Store(&h)
}

// Injected returns how many faults have been injected in total.
func (f *FaultFS) Injected() int64 {
	var n int64
	for i := range f.injected {
		n += f.injected[i].Load()
	}
	return n
}

// InjectedFor returns how many faults have been injected for one
// operation class.
func (f *FaultFS) InjectedFor(op Op) int64 { return f.injected[op].Load() }

// inject builds, counts, and returns one injected error.
func (f *FaultFS) inject(op Op, path string, cause error) error {
	f.injected[op].Add(1)
	if cause != nil {
		return fmt.Errorf("vfs: injected %s fault on %s: %w: %w", op, path, ErrInjected, cause)
	}
	return fmt.Errorf("vfs: injected %s fault on %s: %w", op, path, ErrInjected)
}

// draw returns one uniform [0,1) variate from the seeded stream.
func (f *FaultFS) draw() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

// drawInt returns one uniform integer in [0, n) from the seeded stream.
func (f *FaultFS) drawInt(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Intn(n)
}

// decide runs the hook and the single-probability schedule for op,
// returning a non-nil error when a fault fires.
func (f *FaultFS) decide(op Op, path string, p float64, cause error) error {
	if !f.armed.Load() {
		return nil
	}
	if hp := f.hook.Load(); hp != nil {
		if err := (*hp)(op, path); err != nil {
			return f.inject(op, path, err)
		}
	}
	if p > 0 && f.draw() < p {
		return f.inject(op, path, cause)
	}
	return nil
}

var errEIO = errors.New("input/output error (simulated)")

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := f.decide(OpOpenFile, name, f.cfg.OpenErr, errEIO); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file, path: name}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.decide(OpReadFile, name, f.cfg.ReadErr, errEIO); err != nil {
		return nil, err
	}
	data, err := f.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if f.armed.Load() && f.cfg.ReadCorrupt > 0 && len(data) > 0 && f.draw() < f.cfg.ReadCorrupt {
		// Silent single-bit rot: no error, one flipped bit, counted.
		i := f.drawInt(len(data) * 8)
		data[i/8] ^= 1 << (i % 8)
		f.injected[OpReadFile].Add(1)
	}
	return data, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.decide(OpRename, oldpath, f.cfg.RenameErr, errEIO); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if err := f.decide(OpRemove, name, f.cfg.RemoveErr, errEIO); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	if err := f.decide(OpReadDir, name, 0, nil); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.decide(OpMkdirAll, path, 0, nil); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.decide(OpSyncDir, dir, f.cfg.SyncDirErr, errEIO); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile applies write/sync/read faults to one open handle.
type faultFile struct {
	fs    *FaultFS
	inner File
	path  string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	fs := ff.fs
	if fs.armed.Load() {
		if hp := fs.hook.Load(); hp != nil {
			if err := (*hp)(OpWrite, ff.path); err != nil {
				return 0, fs.inject(OpWrite, ff.path, err)
			}
		}
		if total := fs.cfg.WriteENOSPC + fs.cfg.TornWrite; total > 0 {
			if r := fs.draw(); r < total {
				if r < fs.cfg.WriteENOSPC || len(p) < 2 {
					return 0, fs.inject(OpWrite, ff.path, syscall.ENOSPC)
				}
				// Torn write: a strict prefix reaches the file, then the
				// device "fails". The caller sees a short-write error; the
				// on-disk tail is a partial frame.
				n, werr := ff.inner.Write(p[:1+fs.drawInt(len(p)-1)])
				if werr != nil {
					return n, werr
				}
				return n, fs.inject(OpWrite, ff.path, errEIO)
			}
		}
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := ff.fs.decide(OpReadAt, ff.path, ff.fs.cfg.ReadErr, errEIO); err != nil {
		return 0, err
	}
	return ff.inner.ReadAt(p, off)
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.decide(OpSync, ff.path, ff.fs.cfg.SyncErr, errEIO); err != nil {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Allocate(size int64) error {
	if err := ff.fs.decide(OpAllocate, ff.path, ff.fs.cfg.AllocENOSPC, syscall.ENOSPC); err != nil {
		return err
	}
	return ff.inner.Allocate(size)
}

func (ff *faultFile) Close() error { return ff.inner.Close() }
