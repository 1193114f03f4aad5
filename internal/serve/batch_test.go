package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
)

// TestShardForMatchesSortSearch pins the one shard-select routine against
// the sort.Search it replaced, for shard counts on both sides of every
// power of two (and far past the 16 a batch keeps on its stack), at every
// split key and its neighbours.
func TestShardForMatchesSortSearch(t *testing.T) {
	keys := data.LognormalPaper(20_000, 21)
	for _, nsh := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 300} {
		st := New(keys, core.Config{}, Options{Shards: nsh})
		probes := append([]uint64{0, 1, ^uint64(0)}, data.Uniform(500, keys[len(keys)-1]+1000, 22)...)
		for _, b := range st.bounds {
			probes = append(probes, b-1, b, b+1)
		}
		for _, k := range probes {
			want := sort.Search(len(st.bounds), func(i int) bool { return k < st.bounds[i] })
			if got := st.shardFor(k); got != want {
				t.Fatalf("shards=%d: shardFor(%d) = %d, want %d", nsh, k, got, want)
			}
		}
		batch := append([]uint64(nil), probes...)
		for i, p := range st.LookupBatch(batch) {
			if want := oracle(keys, batch[i]); p != want {
				t.Fatalf("shards=%d: LookupBatch(%d) = %d, want %d", nsh, batch[i], p, want)
			}
		}
		st.Close()
	}
}

// batchSurface is the read/insert surface of one store kind, over uint64
// keys: the string kinds see each key through strKey, which preserves
// order, so one test body drives all four.
type batchSurface struct {
	st            *Store
	insert        func(uint64)
	lookup        func(uint64) int
	contains      func(uint64) bool
	lookupBatch   func([]uint64) []int
	containsBatch func([]uint64) []bool
}

// strKey renders k as a fixed-width string in key order; the codec prefix
// covers bits 16..47, so neighbouring keys share prefixes and lookups
// resolve inside collision groups.
func strKey(k uint64) string { return fmt.Sprintf("%012x", k) }

func strKeys(ks []uint64) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = strKey(k)
	}
	return out
}

// openBatchSurface builds a store of the given kind over base. opt.Dir
// makes it persistent: drains become segment flushes, and the compactor
// merges them beside the readers.
func openBatchSurface(t testing.TB, strMode bool, base []uint64, opt Options) batchSurface {
	if !strMode {
		st, err := Open(base, core.Config{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return batchSurface{st, st.Insert, st.Lookup, st.Contains, st.LookupBatch, st.ContainsBatch}
	}
	st, err := OpenString(strKeys(base), core.Config{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return batchSurface{
		st:            st,
		insert:        func(k uint64) { st.InsertString(strKey(k)) },
		lookup:        func(k uint64) int { return st.LookupString(strKey(k)) },
		contains:      func(k uint64) bool { return st.ContainsString(strKey(k)) },
		lookupBatch:   func(ks []uint64) []int { return st.LookupBatchString(strKeys(ks)) },
		containsBatch: func(ks []uint64) []bool { return st.ContainsBatchString(strKeys(ks)) },
	}
}

// TestBatchEqualsScalarWhileDrainsPublish runs batch reads against scalar
// reads while writers publish beneath them — shard drains in memory,
// segment flushes and compactions on a persistent store — for both key
// kinds (the -race target for the batch paths). The store only ever gains
// keys, so every position is non-decreasing in time: a batch answer must
// lie between the scalar answers taken before and after it — which pins it
// exactly whenever the two agree, as they do on every round no publication
// lands in.
func TestBatchEqualsScalarWhileDrainsPublish(t *testing.T) {
	base := data.LognormalPaper(30_000, 31)
	maxKey := base[len(base)-1]
	for _, kind := range []struct {
		name       string
		str, disk  bool
		perW, pool int
	}{
		{"memory/uint64", false, false, 4000, 1500},
		{"memory/string", true, false, 4000, 1500},
		{"persistent/uint64", false, true, 1500, 600},
		{"persistent/string", true, true, 1500, 600},
	} {
		t.Run(kind.name, func(t *testing.T) {
			opt := Options{Shards: 8, MergeThreshold: 128}
			if kind.disk {
				opt.Dir, opt.CompactFanout = t.TempDir(), 2
			}
			sf := openBatchSurface(t, kind.str, base, opt)
			defer sf.st.Close()

			const writers = 3
			inserted := make([][]uint64, writers)
			for w := range inserted {
				inserted[w] = data.Uniform(kind.perW, maxKey+1000, int64(40+w))
			}
			var writerWg, readerWg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < writers; w++ {
				writerWg.Add(1)
				go func(ks []uint64) {
					defer writerWg.Done()
					for i, k := range ks {
						sf.insert(k)
						if kind.disk && i%64 == 63 {
							sf.st.Flush() // the merger alone would fold a burst into a few big flushes
						}
					}
				}(inserted[w])
			}

			pool := append(append(data.SampleExisting(base, 2000, 32), data.SampleMissing(base, 500, 33)...), inserted[0][:kind.pool]...)
			var exact, bracketed int
			var mu sync.Mutex
			for g := 0; g < 2; g++ {
				readerWg.Add(1)
				go func(g int) {
					defer readerWg.Done()
					rng := rand.New(rand.NewSource(int64(50 + g)))
					batch := make([]uint64, 0, 100)
					posLo, posHi := make([]int, 100), make([]int, 100)
					hasLo, hasHi := make([]bool, 100), make([]bool, 100)
					ex, br := 0, 0
					for stopped := false; !stopped; {
						select {
						case <-stop:
							stopped = true // one last round on the quiescent store
						default:
						}
						batch = batch[:1+rng.Intn(100)] // sizes on both sides of one tile
						for i := range batch {
							batch[i] = pool[rng.Intn(len(pool))]
						}
						for i, k := range batch {
							posLo[i], hasLo[i] = sf.lookup(k), sf.contains(k)
						}
						pos, has := sf.lookupBatch(batch), sf.containsBatch(batch)
						for i, k := range batch {
							posHi[i], hasHi[i] = sf.lookup(k), sf.contains(k)
						}
						moved := false
						for i, k := range batch {
							if pos[i] < posLo[i] || pos[i] > posHi[i] {
								t.Errorf("LookupBatch(%d) = %d outside scalar [%d, %d]", k, pos[i], posLo[i], posHi[i])
								return
							}
							if (hasLo[i] && !has[i]) || (has[i] && !hasHi[i]) {
								t.Errorf("ContainsBatch(%d) = %v between scalar %v and %v", k, has[i], hasLo[i], hasHi[i])
								return
							}
							moved = moved || posLo[i] != posHi[i]
						}
						if moved {
							br++
						} else {
							ex++
						}
					}
					mu.Lock()
					exact, bracketed = exact+ex, bracketed+br
					mu.Unlock()
				}(g)
			}
			writerWg.Wait()
			sf.st.Flush()
			close(stop)
			readerWg.Wait()
			t.Logf("rounds: %d pinned exactly, %d bracketed across a publication", exact, bracketed)
			if exact == 0 || sf.st.Merges() == 0 {
				t.Fatalf("%d exact rounds, %d publications: the test compared nothing or raced nothing", exact, sf.st.Merges())
			}
			if ss, ok := sf.st.StorageStats(); ok && ss.Compactions == 0 {
				t.Fatalf("no compaction ran beside the readers: %+v", ss)
			}
		})
	}
}

// TestBatchReadAllocs guards the batch read paths' one allocation: for up
// to 64 probes a LookupBatch or ContainsBatch of either key kind, in
// memory or persistent, allocates its result and nothing else — the
// selector and plan set sit on the caller's stack, the engine's kernels
// work in pooled scratch.
func TestBatchReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	keys := data.LognormalPaper(40_000, 61)
	probes := data.SampleExisting(keys, 64, 62)
	sprobes := strKeys(probes)
	for _, disk := range []bool{false, true} {
		opt := Options{}
		if disk {
			opt = Options{Dir: t.TempDir()}
		}
		u64 := openBatchSurface(t, false, keys[:30_000], opt)
		if disk {
			opt.Dir = t.TempDir()
		}
		str := openBatchSurface(t, true, keys[:30_000], opt)
		for _, k := range keys[30_000:] { // a second segment (or a drain) over the same range
			u64.insert(k)
			str.insert(k)
		}
		u64.st.Flush()
		str.st.Flush()
		for _, n := range []int{1, 17, 64} {
			for name, call := range map[string]func(){
				"LookupBatch":         func() { u64.st.LookupBatch(probes[:n]) },
				"ContainsBatch":       func() { u64.st.ContainsBatch(probes[:n]) },
				"LookupBatchString":   func() { str.st.LookupBatchString(sprobes[:n]) },
				"ContainsBatchString": func() { str.st.ContainsBatchString(sprobes[:n]) },
			} {
				if avg := testing.AllocsPerRun(200, call); avg > 1 {
					t.Fatalf("persistent=%v: %s(%d probes) allocates %.1f per call, want <= 1", disk, name, n, avg)
				}
			}
		}
		u64.st.Close()
		str.st.Close()
	}
}
