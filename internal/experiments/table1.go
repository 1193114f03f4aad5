package experiments

import (
	"fmt"
	"time"

	"learnedindex/internal/bench"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/hashmap"
)

// Table1Row is one hash-map-architecture measurement.
type Table1Row struct {
	Name        string
	Lookup      time.Duration
	Utilization float64
}

// Table1 reproduces "Hash-map alternative baselines" (Appendix C): the
// tuned bucketized cuckoo map with 8-byte values and with 20-byte records,
// the conservative "commercial" cuckoo with 20-byte records, and the
// in-place chained map with a learned hash at 100% utilization.
//
// The in-place map's learned hash is "a simple single stage multi-variate
// model", matching the paper.
func Table1(o Options) []Table1Row {
	o = o.withDefaults()
	keys := cachedKeys("lognormal", o.N, o.Seed, func() data.Keys { return data.LognormalPaper(o.N, o.Seed) })
	probes := data.SampleExisting(keys, o.Probes, o.Seed+1)
	recs := make([]hashmap.Record, len(keys))
	for i, k := range keys {
		recs[i] = hashmap.Record{Key: k, Payload: k * 3, Meta: uint32(i)}
	}

	var rows []Table1Row
	measure := func(name string, lookup func(uint64) (hashmap.Record, bool), util float64) {
		lk := bench.TimeLookups(probes, o.Rounds, func(k uint64) int {
			r, _ := lookup(k)
			return int(r.Meta)
		})
		rows = append(rows, Table1Row{Name: name, Lookup: lk, Utilization: util})
	}

	avx32 := hashmap.NewAVXCuckoo(len(keys), 4) // compact 32-bit value
	avx20 := hashmap.NewAVXCuckoo(len(keys), 12)
	comm := hashmap.NewCommercialCuckoo(len(keys), 12)
	for _, r := range recs {
		if err := avx32.Insert(r); err != nil {
			panic(err)
		}
		if err := avx20.Insert(r); err != nil {
			panic(err)
		}
		if err := comm.Insert(r); err != nil {
			panic(err)
		}
	}

	// In-place chained with a learned hash. The paper used "a simple single
	// stage multi-variate model"; on the synthetic lognormal at this scale a
	// single stage clusters too hard (coalesced chains explode), so the
	// 2-stage CDF hash of §4.2 is used — same model family as Figure 8.
	slots := len(keys)
	leaves := len(keys) / 20
	if leaves < 16 {
		leaves = 16
	}
	hcfg := core.DefaultConfig(leaves)
	hcfg.Seed = o.Seed
	lh := hashmap.NewLearnedHashFromRMI(core.New(keys, hcfg), slots)
	inplace := hashmap.BuildInPlaceChained(recs, slots, lh.Hash)

	measure("AVX Cuckoo, 32-bit value", avx32.Lookup, avx32.Utilization())
	measure("AVX Cuckoo, 20 Byte record", avx20.Lookup, avx20.Utilization())
	measure("Comm. Cuckoo, 20 Byte record", comm.Lookup, comm.Utilization())
	measure("In-place chained w/ learned hash, record", inplace.Lookup, inplace.Utilization())

	if o.Out != nil {
		t := &bench.Table{
			Title:   fmt.Sprintf("Table 1 (Appendix C) — Hash-map alternative baselines (N=%d, lognormal)", o.N),
			Headers: []string{"Type", "Time (ns)", "Utilization"},
		}
		for _, r := range rows {
			t.Add(r.Name, ns(r.Lookup), fmt.Sprintf("%.0f%%", r.Utilization*100))
		}
		render(o, t)
	}
	return rows
}
