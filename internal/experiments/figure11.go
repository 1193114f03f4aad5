package experiments

import (
	"fmt"
	"time"

	"learnedindex/internal/bench"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/hashmap"
)

// Figure11Row is one (dataset, slots%, hash) measurement of the Appendix B
// separate-chaining experiment.
type Figure11Row struct {
	Dataset    string
	SlotsPct   int
	HashType   string
	Lookup     time.Duration
	EmptyBytes int
	SpaceVsRnd float64 // model empty bytes / random empty bytes
}

// Figure11 reproduces "Model vs Random Hash-map" (Appendix B): a
// separate-chaining map with 20-byte records (24-byte slots), slot counts
// at 75%, 100% and 125% of the key count, learned vs Murmur-style hashing,
// reporting lookup time and the GB wasted in empty slots.
func Figure11(o Options) []Figure11Row {
	o = o.withDefaults()
	var rows []Figure11Row
	for _, ds := range IntegerDatasets(o.N, o.Seed) {
		keys := ds.Keys
		probes := data.SampleExisting(keys, o.Probes, o.Seed+1)
		leaves := len(keys) / 20
		if leaves < 16 {
			leaves = 16
		}
		hcfg := core.DefaultConfig(leaves)
		hcfg.Seed = o.Seed
		hrmi := core.New(keys, hcfg)
		for _, pct := range []int{75, 100, 125} {
			slots := len(keys) * pct / 100
			lh := hashmap.NewLearnedHashFromRMI(hrmi, slots)

			var emptyRnd int
			for _, h := range []struct {
				name string
				fn   hashmap.HashFunc
			}{
				{"Model Hash", lh.Hash},
				{"Random Hash", hashmap.HashFunc(hashmap.RandomHashFunc(slots))},
			} {
				m := hashmap.NewChained(slots, h.fn)
				for i, k := range keys {
					m.Insert(hashmap.Record{Key: k, Payload: k, Meta: uint32(i)})
				}
				lk := bench.TimeLookups(probes, o.Rounds, func(k uint64) int {
					r, _ := m.Lookup(k)
					return int(r.Meta)
				})
				row := Figure11Row{
					Dataset:    ds.Name,
					SlotsPct:   pct,
					HashType:   h.name,
					Lookup:     lk,
					EmptyBytes: m.EmptyBytes(),
				}
				if h.name == "Random Hash" {
					emptyRnd = m.EmptyBytes()
					if emptyRnd > 0 {
						// annotate the model row just added
						for i := len(rows) - 1; i >= 0; i-- {
							if rows[i].Dataset == ds.Name && rows[i].SlotsPct == pct && rows[i].HashType == "Model Hash" {
								rows[i].SpaceVsRnd = float64(rows[i].EmptyBytes) / float64(emptyRnd)
								break
							}
						}
					}
				}
				rows = append(rows, row)
			}
		}
	}
	if o.Out != nil {
		t := &bench.Table{
			Title:   fmt.Sprintf("Figure 11 (Appendix B) — Model vs Random Hash-map (N=%d, 20B records)", o.N),
			Headers: []string{"Dataset", "Slots", "Hash Type", "Time (ns)", "Empty (MB)", "Space"},
		}
		for _, r := range rows {
			space := ""
			if r.HashType == "Model Hash" {
				space = bench.Factor(r.SpaceVsRnd)
			}
			t.Add(r.Dataset, fmt.Sprintf("%d%%", r.SlotsPct), r.HashType,
				ns(r.Lookup), bench.MB(r.EmptyBytes), space)
		}
		render(o, t)
	}
	return rows
}
