package storage

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"learnedindex/internal/vfs"
)

// crashFS is the filesystem under the commit-plane tests. It passes every
// call through, remembers per path how many bytes were written and how many
// of them a completed fsync covers — what a power loss would leave — and
// fails the test when a handle is used after its Close or when two fsyncs
// of one file overlap: the kernel reports a writeback error to one of them
// only, so the plane's acknowledgements rest on there never being two.
type crashFS struct {
	vfs.FS
	t testing.TB

	// mu is held across renames, removes, truncating opens and crash copies,
	// so a copy sees every file under one name. Appends and fsyncs do not
	// wait: the copy fixes each file's length first.
	mu    sync.Mutex
	files map[string]*crashState
}

type crashState struct {
	written atomic.Int64
	synced  atomic.Int64 // length covered by the last fsync; -1 before any
	syncing atomic.Int32 // fsyncs in flight
}

func newCrashFS(t testing.TB) *crashFS {
	return &crashFS{FS: vfs.OS, t: t, files: make(map[string]*crashState)}
}

func (c *crashFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	st := c.files[name]
	if st == nil || flag&os.O_TRUNC != 0 {
		st = &crashState{}
		st.synced.Store(-1)
		c.files[name] = st
	}
	return &crashFile{File: f, fs: c, st: st, path: name}, nil
}

func (c *crashFS) Rename(oldpath, newpath string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	if st, ok := c.files[oldpath]; ok {
		delete(c.files, oldpath)
		c.files[newpath] = st
	}
	return nil
}

func (c *crashFS) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.FS.Remove(name); err != nil {
		return err
	}
	delete(c.files, name)
	return nil
}

type crashFile struct {
	vfs.File
	fs     *crashFS
	st     *crashState
	path   string
	closed atomic.Bool
}

func (f *crashFile) live(op string) {
	if f.closed.Load() {
		f.fs.t.Errorf("%s on the closed descriptor of %s", op, filepath.Base(f.path))
	}
}

func (f *crashFile) Write(p []byte) (int, error) {
	f.live("write")
	n, err := f.File.Write(p)
	f.st.written.Add(int64(n))
	return n, err
}

func (f *crashFile) Allocate(size int64) error {
	f.live("allocate")
	return f.File.Allocate(size)
}

func (f *crashFile) Sync() error {
	f.live("fsync")
	if f.st.syncing.Add(1) > 1 {
		f.fs.t.Errorf("two fsyncs of %s overlap", filepath.Base(f.path))
	}
	defer f.st.syncing.Add(-1)
	// Bytes written while the fsync runs may or may not be covered by it;
	// only those written before it started are known to be.
	covered := f.st.written.Load()
	err := f.File.Sync()
	f.live("fsync return")
	if err != nil {
		return err
	}
	for {
		old := f.st.synced.Load()
		if covered <= old || f.st.synced.CompareAndSwap(old, covered) {
			return nil
		}
	}
}

func (f *crashFile) Close() error {
	f.closed.Store(true)
	return f.File.Close()
}

// crashCopy writes into dst what a power loss at this instant could leave of
// the files under src: each file cut to the length its last completed fsync
// covered, files never fsynced dropped. A log, every other time, also keeps
// a random prefix of its unsynced bytes, and every other time the zeros of
// its reservation behind whatever it keeps.
func (c *crashFS) crashCopy(src, dst string, rng *rand.Rand) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	prefix := filepath.Clean(src) + string(filepath.Separator)
	for path, st := range c.files {
		n, written := st.synced.Load(), st.written.Load()
		if !strings.HasPrefix(path, prefix) || n < 0 {
			continue
		}
		isWAL := strings.HasPrefix(filepath.Base(path), "wal")
		if isWAL && rng.Intn(2) == 0 {
			n += rng.Int63n(written - n + 1)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		img := make([]byte, n)
		_, err = io.ReadFull(in, img)
		in.Close()
		if err != nil {
			return err
		}
		if isWAL && rng.Intn(2) == 0 {
			img = append(img, make([]byte, (n/walExtent+1)*walExtent-n)...)
		}
		if err := os.WriteFile(filepath.Join(dst, path[len(prefix):]), img, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// TestCommitConcurrentCrashOracle runs several concurrent committers and a
// publisher — three drains, then the flush that spills them — over the commit
// plane and, while they run, takes crash images: what the disk would hold
// after a power loss at that instant, somewhere between a drain and the next
// spill.
// Every key whose Commit had returned before an image was taken must be
// served by a reopen of that image, nothing but committed keys may be, and
// Len is exact — in both key modes, whose cohorts drain through different
// frame encoders.
func TestCommitConcurrentCrashOracle(t *testing.T) {
	const (
		committers = 6
		batches    = 120
		perBatch   = 4
		crashes    = 5
		stride     = 1 << 32 // disjoint key range per committer
	)
	str := oracleStr
	for _, strMode := range []bool{false, true} {
		strMode := strMode
		t.Run(map[bool]string{false: "uint64", true: "string"}[strMode], func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			cfs := newCrashFS(t)
			e := openT(t, dir, Options{FS: cfs, StringKeys: strMode, CompactFanout: 3})
			commit := func(b []uint64) error {
				if !strMode {
					return e.CommitBatch(b)
				}
				s := make([]string, len(b))
				for i, k := range b {
					s[i] = str(k)
				}
				return e.CommitStringBatch(s)
			}

			var ackMu sync.Mutex
			ackCond := sync.NewCond(&ackMu)
			var acked []uint64
			var failed error
			var wg sync.WaitGroup
			for g := 0; g < committers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < batches; i++ {
						b := make([]uint64, perBatch)
						for j := range b {
							b[j] = uint64(g)*stride + uint64(i*perBatch+j)
						}
						err := commit(b)
						ackMu.Lock()
						if err != nil {
							failed = err
						} else {
							acked = append(acked, b...)
						}
						ackCond.Broadcast()
						ackMu.Unlock()
						if err != nil {
							return
						}
					}
				}(g)
			}
			stop := make(chan struct{})
			flusherDone := make(chan error, 1)
			go func() {
				for i := 1; ; i++ {
					select {
					case <-stop:
						flusherDone <- nil
						return
					case <-time.After(3 * time.Millisecond):
					}
					publish := e.Drain
					if i%4 == 0 {
						publish = e.Flush
					}
					if err := publish(); err != nil {
						flusherDone <- err
						return
					}
				}
			}()

			// Crash images, spread over the run by acked-key count.
			rng := rand.New(rand.NewSource(17))
			const total = committers * batches * perBatch
			type image struct {
				dir   string
				acked []uint64
			}
			var images []image
			for c := 1; c <= crashes; c++ {
				ackMu.Lock()
				for len(acked) < c*total/(crashes+1) && failed == nil {
					ackCond.Wait()
				}
				// The acked set first, the image second: whatever was
				// acknowledged before the power loss must be in it.
				img := image{dir: t.TempDir(), acked: slices.Clone(acked)}
				err := failed
				ackMu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				if err := cfs.crashCopy(dir, img.dir, rng); err != nil {
					t.Fatal(err)
				}
				images = append(images, img)
			}
			wg.Wait()
			close(stop)
			if err := <-flusherDone; err != nil {
				t.Fatal(err)
			}
			if failed != nil {
				t.Fatal(failed)
			}
			if st := e.Stats(); st.Commits != committers*batches || st.Drains == 0 {
				t.Fatalf("%d commits acknowledged, want %d; %d drains", st.Commits, committers*batches, st.Drains)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			for i, img := range images {
				re := openT(t, img.dir, Options{NoCompactor: true, StringKeys: strMode})
				for _, k := range img.acked {
					if strMode && !re.ContainsString(str(k)) || !strMode && !re.Contains(k) {
						t.Fatalf("image %d: key %#x was acknowledged before the crash and is lost", i, k)
					}
				}
				var served []uint64
				if strMode {
					for _, s := range re.KeysStrings() {
						var k uint64
						if n, err := fmt.Sscanf(s, "k%016x", &k); n != 1 || err != nil {
							t.Fatalf("image %d serves invented key %q", i, s)
						}
						served = append(served, k)
					}
				} else {
					served = re.Keys()
				}
				for _, k := range served {
					if k/stride >= committers || k%stride >= batches*perBatch {
						t.Fatalf("image %d serves key %#x, which nobody committed", i, k)
					}
				}
				if re.Len() != len(served) || len(served) < len(img.acked) {
					t.Fatalf("image %d: Len=%d, %d keys enumerated, %d acknowledged", i, re.Len(), len(served), len(img.acked))
				}
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// parkFirstSync makes the next WAL fsync wait inside the filesystem until
// release is called (at the latest when the test ends, so a failed assertion
// does not hang the engine's Close: open the engine with openParkedT, which
// closes it after that). reached is closed once that fsync has got there.
func parkFirstSync(t *testing.T, ffs *vfs.FaultFS) (reached <-chan struct{}, release func()) {
	at, gate := make(chan struct{}), make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	var n atomic.Int32
	ffs.SetHook(func(op vfs.Op, path string) error {
		if op == vfs.OpSync && strings.HasPrefix(filepath.Base(path), "wal") && n.Add(1) == 1 {
			close(at)
			<-gate
		}
		return nil
	})
	return at, release
}

// openParkedT opens an engine over a fault injector on a crashFS, closed
// when the test ends — after the fsync a parkFirstSync made later holds
// has been let go.
func openParkedT(t *testing.T, dir string) (*Engine, *vfs.FaultFS) {
	ffs := vfs.NewFaultFS(newCrashFS(t), vfs.FaultConfig{})
	e := openT(t, dir, Options{FS: ffs, NoCompactor: true})
	t.Cleanup(func() { e.Close() })
	return e, ffs
}

// TestCohortSyncOutlivesFreezeAndClose: a Flush freezes, retires and closes
// the log a cohort's fsync is still in flight on, and Close does the same to
// the log after it. Neither may run a second fsync beside the first or pull
// the descriptor from under it (the crashFS fails the test on either), both
// cohorts are acknowledged, and every key survives a reopen.
func TestCohortSyncOutlivesFreezeAndClose(t *testing.T) {
	dir := t.TempDir()
	e, ffs := openParkedT(t, dir)
	for i, closer := range []func() error{e.Flush, e.Close} {
		k := uint64(i + 1)
		reached, release := parkFirstSync(t, ffs)
		errs := make(chan error, 2)
		go func() { errs <- e.Commit(k) }()
		select {
		case <-reached:
		case <-time.After(30 * time.Second):
			t.Fatal("the cohort's fsync never reached the filesystem")
		}
		go func() { errs <- closer() }()
		// Time for the closer to get as far as it can: a freeze that waits
		// for the parked fsync cannot be hurried, one that does not has gone
		// past it by now.
		time.Sleep(20 * time.Millisecond)
		release()
		for i := 0; i < 2; i++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("a call never returned")
			}
		}
	}
	re := openT(t, dir, Options{NoCompactor: true})
	defer re.Close()
	if got := re.Keys(); !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("reopen serves %v, want [1 2]", got)
	}
}

// commitCohortAcrossReservation commits three batches as one cohort whose
// frame crosses the end of the log's first reserved extent. A first commit's
// fsync is held in the filesystem until the three have queued behind it, so
// the next leader frames them together. It returns the engine, the first
// commit's error, the three committers' errors, and how many log fsyncs and
// reservations ran from the release of the held fsync on; with failSync
// every one of those fsyncs fails.
func commitCohortAcrossReservation(t *testing.T, dir string, failSync bool) (e *Engine, first error, errs []error, syncs, allocs int64) {
	ffs := vfs.NewFaultFS(newCrashFS(t), vfs.FaultConfig{})
	e = openT(t, dir, Options{FS: ffs, NoCompactor: true})
	t.Cleanup(func() { e.Close() })
	if err := e.Commit(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	var counting atomic.Bool
	var nsync, nalloc atomic.Int64
	at, gate := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { counting.Store(true); close(gate) })
	t.Cleanup(release)
	var held atomic.Bool
	ffs.SetHook(func(op vfs.Op, path string) error {
		if !strings.HasPrefix(filepath.Base(path), "wal") {
			return nil
		}
		switch {
		case counting.Load() && op == vfs.OpAllocate:
			nalloc.Add(1)
		case counting.Load() && op == vfs.OpSync:
			nsync.Add(1)
			if failSync {
				return fmt.Errorf("fsync lost to the page cache")
			}
		case op == vfs.OpSync && held.CompareAndSwap(false, true):
			close(at)
			<-gate
		}
		return nil
	})
	e.mu.Lock()
	base := e.appendSeq
	e.mu.Unlock()

	firstErr := make(chan error, 1)
	go func() { firstErr <- e.Commit(10) }()
	select {
	case <-at:
	case <-time.After(30 * time.Second):
		t.Fatal("the first commit's fsync never reached the filesystem")
	}
	// Three batches of 9-byte varints, together longer than one extent.
	const perBatch = walExtent/24 + 1
	cohortErrs := make(chan error, 3)
	for b := 0; b < 3; b++ {
		batch := make([]uint64, perBatch)
		for i := range batch {
			batch[i] = 1<<63 + uint64(b*perBatch+i)
		}
		go func() { cohortErrs <- e.CommitBatch(batch) }()
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		e.mu.Lock()
		queued := e.appendSeq - base
		e.mu.Unlock()
		if queued == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 4 commits queued", queued)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wait := func(ch <-chan error) error {
		select {
		case err := <-ch:
			return err
		case <-time.After(30 * time.Second):
			t.Fatal("a commit never returned")
			return nil
		}
	}
	first = wait(firstErr)
	for i := 0; i < 3; i++ {
		errs = append(errs, wait(cohortErrs))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal.size <= walExtent {
		t.Fatalf("the cohort's frame ends at %d, inside the first %d-byte extent", e.wal.size, walExtent)
	}
	return e, first, errs, nsync.Load(), nalloc.Load()
}

// TestCommitAcrossReservationSyncsOnce: a cohort whose frame crosses the
// log's reservation extends it, and the cohort's one fsync is still the only
// one — the reservation adds no sync of its own; that fsync makes the
// reserved zeros durable with the frame. Every committer is acknowledged
// and every key survives a reopen.
func TestCommitAcrossReservationSyncsOnce(t *testing.T) {
	dir := t.TempDir()
	e, first, errs, syncs, allocs := commitCohortAcrossReservation(t, dir, false)
	if err := errors.Join(append(errs, first)...); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 || allocs != 1 {
		t.Fatalf("the cohort ran %d log fsyncs and %d reservations, want 1 and 1", syncs, allocs)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re := openT(t, dir, Options{NoCompactor: true})
	defer re.Close()
	if want := 4 + 3*(walExtent/24+1); re.Len() != want {
		t.Fatalf("reopen serves %d keys, want %d", re.Len(), want)
	}
}

// TestCommitAcrossReservationSyncFailurePoisons: when the fsync of a cohort
// whose frame crossed the reservation fails, every committer in the cohort
// gets the failure and none is acknowledged, the engine poisons, and the
// keys acknowledged before it survive a reopen.
func TestCommitAcrossReservationSyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	e, first, errs, syncs, allocs := commitCohortAcrossReservation(t, dir, true)
	if first != nil {
		t.Fatalf("the commit before the cohort: %v", first)
	}
	for _, err := range errs {
		if !errors.Is(err, vfs.ErrInjected) || !errors.Is(err, ErrPoisoned) {
			t.Fatalf("a committer of the failed cohort got %v, want the injected fsync failure, poisoned", err)
		}
	}
	if syncs != 1 || allocs != 1 {
		t.Fatalf("the cohort ran %d log fsyncs and %d reservations, want 1 and 1", syncs, allocs)
	}
	if h, cause := e.Health(); h != HealthFailed || !errors.Is(cause, ErrPoisoned) {
		t.Fatalf("health = %v (%v), want failed/ErrPoisoned", h, cause)
	}
	if err := e.Commit(20); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("commit after the failed cohort = %v, want ErrPoisoned", err)
	}
	e.Close() // fails with the poison error; expected
	re := openT(t, dir, Options{NoCompactor: true})
	defer re.Close()
	for _, k := range []uint64{1, 2, 3, 10} {
		if !re.Contains(k) {
			t.Fatalf("acked key %d lost across the failed cohort and a reopen", k)
		}
	}
}
