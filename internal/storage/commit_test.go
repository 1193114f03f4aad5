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

// crashFS is the filesystem under the overlapped-commit tests. It passes
// every call through, remembers per path how many bytes were written and how
// many of them a completed fsync covers — what a power loss would leave —
// and fails the test when a handle is used after its Close.
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

// TestCommitOverlapCrashOracle runs several concurrent committers and a
// flusher over the overlapped commit plane and, while they run, takes crash
// images: what the disk would hold after a power loss at that instant.
// Every key whose Commit had returned before an image was taken must be
// served by a reopen of that image, nothing but committed keys may be, and
// Len is exact — in both key modes, whose cohorts drain through different
// frame encoders.
func TestCommitOverlapCrashOracle(t *testing.T) {
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
				for {
					select {
					case <-stop:
						flusherDone <- nil
						return
					case <-time.After(3 * time.Millisecond):
					}
					if err := e.Flush(); err != nil {
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
			if st := e.Stats(); st.Commits != committers*batches {
				t.Fatalf("%d commits acknowledged, want %d", st.Commits, committers*batches)
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

// parkedSyncs makes the nth WAL fsync (from 1) wait inside the filesystem
// until released, and return fail[n] when it is. Every fsync announces
// itself on issued before it may wait, and every directory fsync — the last
// step of a segment's publication — on dirSynced. Whatever the test has not released
// when it ends is released then, so a failed assertion ends the test
// instead of hanging the engine's Close: open the engine with openParkedT,
// which closes it after that.
type parkedSyncs struct {
	n         atomic.Int32
	issued    chan int32
	dirSynced chan struct{}
	parked    map[int32]chan struct{}
	release   map[int32]func()
	fail      map[int32]error
}

func parkSyncs(t *testing.T, ffs *vfs.FaultFS, fail map[int32]error, park ...int32) *parkedSyncs {
	p := &parkedSyncs{issued: make(chan int32, 64), dirSynced: make(chan struct{}, 64), parked: map[int32]chan struct{}{}, release: map[int32]func(){}, fail: fail}
	for _, n := range park {
		ch := make(chan struct{})
		p.parked[n] = ch
		p.release[n] = sync.OnceFunc(func() { close(ch) })
		t.Cleanup(p.release[n])
	}
	ffs.SetHook(func(op vfs.Op, path string) error {
		if op == vfs.OpSyncDir {
			p.dirSynced <- struct{}{}
		}
		if op != vfs.OpSync || !strings.HasPrefix(filepath.Base(path), "wal") {
			return nil
		}
		n := p.n.Add(1)
		p.issued <- n
		if ch, ok := p.parked[n]; ok {
			<-ch
		}
		return p.fail[n]
	})
	return p
}

// openParkedT opens an engine over a fault injector on a crashFS, closed
// when the test ends — after the parked fsyncs of a parkSyncs made later
// have been let go.
func openParkedT(t *testing.T, dir string) (*Engine, *vfs.FaultFS) {
	ffs := vfs.NewFaultFS(newCrashFS(t), vfs.FaultConfig{})
	e := openT(t, dir, Options{FS: ffs, NoCompactor: true})
	t.Cleanup(func() { e.Close() })
	return e, ffs
}

// await returns once WAL fsync number n has reached the filesystem.
func (p *parkedSyncs) await(t *testing.T, n int32) {
	t.Helper()
	select {
	case got := <-p.issued:
		if got != n {
			t.Fatalf("WAL fsync %d reached the filesystem, expected number %d next", got, n)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("WAL fsync %d never reached the filesystem", n)
	}
}

// awaitSyncsDone returns once the engine has taken n fsync results in.
func awaitSyncsDone(t *testing.T, e *Engine, n int64) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); e.m.walSyncs.Load() < n; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d fsync results taken in, want %d", e.m.walSyncs.Load(), n)
		}
	}
}

// replLog records what the repl sink is handed, in order.
type replLog struct {
	mu   sync.Mutex
	seqs []uint64
}

func (l *replLog) sink(frames []ReplFrame) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range frames {
		l.seqs = append(l.seqs, f.Seq)
	}
}

func (l *replLog) got() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.seqs)
}

// TestCommitAcksInIssueOrder: two fsyncs overlap and the one issued first
// finishes last. Nothing the second covers is acknowledged, promoted to
// the repl sink or counted durable before the first returns; afterwards both
// cohorts are, in sequence order. A third committer arriving meanwhile does
// not put a third fsync beside them.
func TestCommitAcksInIssueOrder(t *testing.T) {
	e, ffs := openParkedT(t, t.TempDir())
	var repl replLog
	e.SetReplSink(repl.sink)
	p := parkSyncs(t, ffs, nil, 1)

	acks := make(chan uint64, 3)
	commit := func(k uint64) {
		go func() {
			if err := e.Commit(k); err != nil {
				t.Error(err)
			}
			acks <- k
		}()
	}
	commit(1)
	p.await(t, 1) // first cohort cut and on its way, held in the device
	commit(2)
	p.await(t, 2) // second fsync issued beside it
	awaitSyncsDone(t, e, 1)
	commit(3) // two unretired: must wait, not lead

	if ds := e.ReplDurableSeq(); ds != 0 || len(repl.got()) != 0 {
		t.Fatalf("repl horizon %d, frames %v promoted while the first-issued fsync is outstanding", ds, repl.got())
	}
	e.mu.Lock()
	durable, unretired := e.durableSeq, len(e.syncs)
	e.mu.Unlock()
	if durable != 0 || unretired != 2 {
		t.Fatalf("durableSeq=%d with %d unretired fsyncs, want 0 and 2", durable, unretired)
	}
	select {
	case k := <-acks:
		t.Fatalf("commit of key %d acknowledged while the first-issued fsync is outstanding", k)
	default:
	}

	p.release[1]()
	p.await(t, 3) // only now does the third committer lead
	for i := 0; i < 3; i++ {
		select {
		case <-acks:
		case <-time.After(30 * time.Second):
			t.Fatal("commits never acknowledged after the first fsync returned")
		}
	}
	if got := repl.got(); !slices.Equal(got, []uint64{1, 2, 3}) {
		t.Fatalf("repl sink saw frames %v, want [1 2 3] in order", got)
	}
	if ds := e.ReplDurableSeq(); ds != 3 {
		t.Fatalf("ReplDurableSeq = %d, want 3", ds)
	}
}

// TestCommitOverlapFailureFailsBothCohorts: of two overlapping fsyncs one
// fails, and the kernel reports a writeback error to one of them only — so
// neither cohort is acknowledged, whichever fsync saw it, and in particular
// not the cohort whose later-issued fsync returned nil while the failing one
// was still outstanding. The engine is poisoned and nothing reaches the repl
// sink.
func TestCommitOverlapFailureFailsBothCohorts(t *testing.T) {
	lost := errors.New("writeback lost")
	for _, failing := range []int32{1, 2} {
		failing := failing
		t.Run(fmt.Sprintf("fsync%dFails", failing), func(t *testing.T) {
			e, ffs := openParkedT(t, t.TempDir())
			var repl replLog
			e.SetReplSink(repl.sink)
			p := parkSyncs(t, ffs, map[int32]error{failing: lost}, 1)

			errs := make(chan error, 2)
			go func() { errs <- e.Commit(1) }()
			p.await(t, 1)
			go func() { errs <- e.Commit(2) }()
			p.await(t, 2)
			awaitSyncsDone(t, e, 1) // the second fsync's result is in; the first is still out
			if failing == 1 {
				select {
				case err := <-errs:
					t.Fatalf("a commit returned (%v) while the first-issued fsync is outstanding", err)
				default:
				}
			}
			p.release[1]()
			for i := 0; i < 2; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, ErrPoisoned) || !errors.Is(err, lost) {
						t.Fatalf("commit returned %v, want the poison error carrying the lost writeback", err)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("commits never returned")
				}
			}
			if h, _ := e.Health(); h != HealthFailed {
				t.Fatalf("health = %v, want failed", h)
			}
			if got := repl.got(); len(got) != 0 || e.ReplDurableSeq() != 0 {
				t.Fatalf("frames %v promoted past a failed fsync", got)
			}
		})
	}
}

// TestCohortSyncsOutliveFreezeAndClose: a Flush freezes, retires and closes
// the log two in-flight cohort fsyncs still hold, and Close does the same to
// the log after it. Neither may pull the descriptor from under an fsync (the
// crashFS fails the test on any use of a closed handle), the cohorts are
// acknowledged, and every key survives a reopen.
func TestCohortSyncsOutliveFreezeAndClose(t *testing.T) {
	dir := t.TempDir()
	e, ffs := openParkedT(t, dir)
	errs := make(chan error, 8)
	inFlight := func(p *parkedSyncs, k uint64) {
		go func() { errs <- e.Commit(k) }()
		p.await(t, 1)
		go func() { errs <- e.Commit(k + 1) }()
		p.await(t, 2)
	}
	drain := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
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

	// published returns once the flush under way has published its segment
	// and had time to go on to close the log it froze. A close that waits for
	// the parked fsyncs cannot be hurried; one that does not has happened by
	// then, and the crashFS reports the fsyncs that find the descriptor gone.
	published := func(p *parkedSyncs) {
		t.Helper()
		p.await(t, 3) // the freeze's own fsync, beside the two parked ones
		select {
		case <-p.dirSynced:
			time.Sleep(20 * time.Millisecond)
		case <-time.After(30 * time.Second):
			t.Fatal("the flush never published its segment")
		}
	}

	p := parkSyncs(t, ffs, nil, 1, 2)
	inFlight(p, 1)
	go func() { errs <- e.Flush() }()
	published(p)
	p.release[1]()
	p.release[2]()
	drain(3)

	p = parkSyncs(t, ffs, nil, 1, 2)
	inFlight(p, 3)
	go func() { errs <- e.Close() }()
	published(p) // Close's flush froze the log under the parked fsyncs
	p.release[2]()
	p.release[1]()
	drain(3)

	re := openT(t, dir, Options{NoCompactor: true})
	defer re.Close()
	if got := re.Keys(); !slices.Equal(got, []uint64{1, 2, 3, 4}) {
		t.Fatalf("reopen serves %v, want [1 2 3 4]", got)
	}
}
