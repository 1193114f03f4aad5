// Hash store: the §4 point-index scenario — a build-once key-value store
// whose hash function is a learned CDF model. Compares slot waste and
// lookup behaviour against MurmurHash-style random hashing on the Maps
// dataset (Figure 8's best case), across the Appendix B slot budgets.
package main

import (
	"fmt"

	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/hashmap"
)

func main() {
	const n = 500_000
	keys := data.Maps(n, 3)
	fmt.Printf("point-lookup store over %d map keys (20-byte records)\n\n", n)

	// The learned hash: scale the CDF model to the table size (§4.1).
	hcfg := core.DefaultConfig(n / 50)
	hcfg.Top = core.TopNN
	hcfg.Hidden = []int{16, 16}
	cdf := core.New(keys, hcfg)

	fmt.Printf("%-6s %-12s %10s %12s %10s\n", "slots", "hash", "empty", "overflow", "size (MB)")
	for _, pct := range []int{75, 100, 125} {
		slots := n * pct / 100
		lh := hashmap.NewLearnedHashFromRMI(cdf, slots)
		for _, h := range []struct {
			name string
			fn   hashmap.HashFunc
		}{
			{"learned", lh.Hash},
			{"random", hashmap.HashFunc(hashmap.RandomHashFunc(slots))},
		} {
			m := hashmap.NewChained(slots, h.fn)
			for i, k := range keys {
				m.Insert(hashmap.Record{Key: k, Payload: k * 2, Meta: uint32(i)})
			}
			fmt.Printf("%5d%% %-12s %10d %12d %10.2f\n",
				pct, h.name, m.EmptySlots(), m.OverflowLen(),
				float64(m.SizeBytes())/(1<<20))
		}
	}

	// Spot-check correctness through the store API.
	slots := n
	lh := hashmap.NewLearnedHashFromRMI(cdf, slots)
	store := hashmap.NewChained(slots, lh.Hash)
	for i, k := range keys {
		store.Insert(hashmap.Record{Key: k, Payload: k * 2, Meta: uint32(i)})
	}
	ok := 0
	for _, k := range data.SampleExisting(keys, 10_000, 9) {
		if r, found := store.Lookup(k); found && r.Payload == k*2 {
			ok++
		}
	}
	fmt.Printf("\nverified %d/10000 random lookups through the learned-hash store\n", ok)

	// And the Appendix C variant: 100%-utilization in-place chaining, where
	// hash quality affects only speed, never size.
	recs := make([]hashmap.Record, n)
	for i, k := range keys {
		recs[i] = hashmap.Record{Key: k, Payload: k * 2, Meta: uint32(i)}
	}
	ip := hashmap.BuildInPlaceChained(recs, n, lh.Hash)
	fmt.Printf("in-place chained: utilization %.0f%%, %0.2f MB\n",
		ip.Utilization()*100, float64(ip.SizeBytes())/(1<<20))
}
