// Concurrent serving: the learned index behind production-shaped traffic.
//
// The paper frames learned range indexes as read-heavy in-memory serving
// structures (§3.1); this scenario runs one through the serving layer
// (internal/serve, exported as learnedindex.Store): range-sharded,
// lock-free RCU-style reads, buffered inserts merged and retrained by a
// background goroutine, and batched lookups that run a whole probe batch,
// in the order it arrived, through one lockstep search across all shards
// so its cache misses overlap.
//
// The run: 2M keys, 8 shards, reader goroutines issuing 512-probe batches
// while writer goroutines stream fresh keys in, then a Flush barrier and a
// final consistency audit against a flat oracle.
package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"learnedindex"
	"learnedindex/internal/data"
)

func main() {
	const (
		n       = 2_000_000
		readers = 4
		writers = 2
		perW    = 50_000
		batch   = 512
		runFor  = 2 * time.Second
	)
	keys := data.LognormalPaper(n, 42)
	st := learnedindex.NewStore(keys, learnedindex.Config{},
		learnedindex.StoreOptions{Shards: 8, MergeThreshold: 8192})
	defer st.Close()
	fmt.Printf("store: %d keys, %d shards, GOMAXPROCS %d\n",
		st.Len(), st.NumShards(), runtime.GOMAXPROCS(0))

	probes := data.SampleExisting(keys, 1<<16, 7)
	var (
		wg      sync.WaitGroup
		lookups atomic.Int64
		stop    = make(chan struct{})
	)

	// Readers: lock-free batched lookups, each batch one consistent view.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			off := g * batch
			for {
				select {
				case <-stop:
					return
				default:
				}
				off = (off + batch) & (1<<16 - 1)
				st.LookupBatch(probes[off : off+batch])
				lookups.Add(batch)
			}
		}(g)
	}

	// Writers: buffered inserts; the background goroutine merges and
	// retrains shard snapshots while the readers keep going.
	inserted := make([][]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		base := uint64(1)<<62 + uint64(w)*perW*1000
		ks := make([]uint64, perW)
		for i := range ks {
			ks[i] = base + uint64(i)*7 // append-heavy tail, the paper's log workload
		}
		inserted[w] = ks
		go func(ks []uint64) {
			defer wg.Done()
			for _, k := range ks {
				st.Insert(k)
			}
		}(ks)
	}

	start := time.Now()
	time.Sleep(runFor)
	close(stop)
	wg.Wait()
	el := time.Since(start)
	fmt.Printf("\n%d reader goroutines: %.2fM batched lookups/s while %d writers inserted %d keys\n",
		readers, float64(lookups.Load())/el.Seconds()/1e6, writers, writers*perW)
	fmt.Printf("background merges so far: %d, pending buffered inserts: %d\n",
		st.Merges(), st.Pending())

	// Flush is the visibility barrier: every insert that returned before it
	// is now readable.
	st.Flush()
	fmt.Printf("\nafter Flush: Len = %d (base %d + %d inserted), pending %d\n",
		st.Len(), n, writers*perW, st.Pending())

	// Audit global positions against a flat sorted oracle.
	all := append([]uint64{}, keys...)
	for _, ks := range inserted {
		all = append(all, ks...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	audit := append(append([]uint64{}, probes[:1000]...), inserted[0][:1000]...)
	bad := 0
	for i, p := range st.LookupBatch(audit) {
		want := sort.Search(len(all), func(j int) bool { return all[j] >= audit[i] })
		if p != want {
			bad++
		}
	}
	fmt.Printf("audit: %d/%d batched positions match the flat oracle\n", len(audit)-bad, len(audit))
}
