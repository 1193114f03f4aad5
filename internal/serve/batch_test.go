package serve

import (
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

// TestBatchEqualsScalarWhileDrainsPublish runs batch reads against scalar
// reads while writers and drains publish new snapshots (the -race target
// for the sort-free batch path). The store only ever gains keys, so every
// shard's length and every position is non-decreasing in time: a batch
// answer must lie between the scalar answers taken before and after it —
// which pins it exactly whenever the two agree, as they do on every round
// no publication lands in.
func TestBatchEqualsScalarWhileDrainsPublish(t *testing.T) {
	base := data.LognormalPaper(30_000, 31)
	st := New(base, core.Config{}, Options{Shards: 8, MergeThreshold: 128})
	defer st.Close()
	maxKey := base[len(base)-1]

	const writers, perW = 3, 4000
	inserted := make([][]uint64, writers)
	for w := range inserted {
		inserted[w] = data.Uniform(perW, maxKey+1000, int64(40+w))
	}
	var writerWg, readerWg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(ks []uint64) {
			defer writerWg.Done()
			for _, k := range ks {
				st.Insert(k)
			}
		}(inserted[w])
	}

	pool := append(append(data.SampleExisting(base, 2000, 32), data.SampleMissing(base, 500, 33)...), inserted[0][:1500]...)
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
					posLo[i], hasLo[i] = st.Lookup(k), st.Contains(k)
				}
				pos, has := st.LookupBatch(batch), st.ContainsBatch(batch)
				for i, k := range batch {
					posHi[i], hasHi[i] = st.Lookup(k), st.Contains(k)
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
	st.Flush()
	close(stop)
	readerWg.Wait()
	t.Logf("rounds: %d pinned exactly, %d bracketed across a publication", exact, bracketed)
	if exact == 0 || st.Merges() == 0 {
		t.Fatalf("%d exact rounds, %d publications: the test compared nothing or raced nothing", exact, st.Merges())
	}
}

// TestBatchReadAllocs guards the batch read path's one allocation: for up
// to 64 probes an in-memory LookupBatch or ContainsBatch allocates its
// result and nothing else — no scratch, no pool, no selector.
func TestBatchReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	keys := data.LognormalPaper(40_000, 61)
	st := New(keys, core.Config{}, Options{})
	defer st.Close()
	probes := data.SampleExisting(keys, 64, 62)
	for _, n := range []int{1, 17, 64} {
		if avg := testing.AllocsPerRun(200, func() { st.LookupBatch(probes[:n]) }); avg > 1 {
			t.Fatalf("LookupBatch(%d probes) allocates %.1f per call, want <= 1", n, avg)
		}
		if avg := testing.AllocsPerRun(200, func() { st.ContainsBatch(probes[:n]) }); avg > 1 {
			t.Fatalf("ContainsBatch(%d probes) allocates %.1f per call, want <= 1", n, avg)
		}
	}
}
