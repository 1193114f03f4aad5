package serve

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/repl"
)

// Resident-memory guards: a persistent store holds a key once, in the shape
// its segment file gives it. Each test builds its keys where only the store
// can keep them, collects twice (sync.Pool contents survive one cycle) and
// prices what is left per key.

const residentKeys = 100_000

// docIDs returns n sorted unique 15-byte document ids.
func docIDs(n int) []string {
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	rng := rand.New(rand.NewSource(33))
	keys := make([]string, 0, n+n/8)
	for len(keys) < n {
		for len(keys) < cap(keys) {
			b := []byte("d00-0000000000p")
			c := rng.Intn(64)
			b[1], b[2] = digits[c/36], digits[c%36]
			for j := 4; j < 14; j++ {
				b[j] = digits[rng.Intn(36)]
			}
			keys = append(keys, string(b))
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	return keys[:n]
}

func heapHeld() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heldPerKey polls until the heap held beyond before is within bound bytes
// per key — background compactions hold their inputs while they run — and
// fails with the last reading otherwise.
func heldPerKey(t *testing.T, what string, before uint64, bound float64) {
	t.Helper()
	var per float64
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		per = (float64(heapHeld()) - float64(before)) / residentKeys
		if per <= bound {
			t.Logf("%s holds %.1f B/key", what, per)
			return
		}
	}
	t.Errorf("%s holds %.1f B/key, want <= %.1f", what, per, bound)
}

func TestResidentHeapStringStore(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is not meaningful under -race")
	}
	before := heapHeld()
	st, err := OpenString(docIDs(residentKeys), core.Config{}, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != residentKeys {
		t.Fatalf("Len = %d", st.Len())
	}
	// 8 prefix bytes, 7 suffix bytes, a length, half a byte of offsets, a
	// Bloom filter's 1.2: about 18. A string per key held ~42.
	heldPerKey(t, "persistent string store", before, 24)

	// The follower twin: the same keys replayed from the primary's stream
	// must come to rest in the same structure.
	// It is priced with its session live, which is when a snapshot buffer
	// kept past the bulk load it fed would still be held (~57 B/key). The
	// snapshot crosses in 1024-key chunks, so the link's own buffers — the
	// in-memory pipe's 256 KiB and a chunk on each side — are ~3 B/key of
	// the bound, not the ~1.5 MB of the default chunk.
	tr := repl.NewMemTransport()
	prim, err := st.ServeReplication(tr, "prim", repl.PrimaryOptions{
		Epoch: 1, HeartbeatEvery: 10 * time.Millisecond, SnapChunkKeys: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	before = heapHeld()
	fst, err := OpenFollowerString(core.Config{}, Options{Dir: t.TempDir(), MergeThreshold: 100}, fastRepl(prim.Addr(), tr))
	if err != nil {
		t.Fatal(err)
	}
	defer fst.Close()
	waitFollower(t, "follower catch-up", func() bool { return fst.Len() == residentKeys })
	heldPerKey(t, "string follower", before, 24)
}

func TestResidentHeapUint64Store(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is not meaningful under -race")
	}
	before := heapHeld()
	st, err := Open(data.LognormalPaper(residentKeys, 34), core.Config{}, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The decoded key array's 8 bytes and a Bloom filter's 1.2; the file
	// image retained beside them held ~15.
	heldPerKey(t, "persistent uint64 store", before, 10.5)
}
