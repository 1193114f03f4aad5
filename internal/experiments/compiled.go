package experiments

import (
	"fmt"
	"slices"
	"time"

	"learnedindex/internal/bench"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
)

// CompiledRow is one read-path configuration's measurement.
type CompiledRow struct {
	Config   string
	PerKey   time.Duration
	SpeedUp  float64 // vs compiled single-key
	Batched  bool
	IdxBytes int
}

// Compiled measures the compiled read path (core.Plan), which answers
// every RMI lookup, on one trained RMI: single-key lookups, and the batch
// kernel over ascending and over shuffled probes. The claim it pins is
// model inference at the §3.2 cost (a handful of multiply-adds plus a tiny
// bounded search), with batching turning dependent cache misses into
// overlapping ones.
func Compiled(o Options) []CompiledRow {
	o = o.withDefaults()
	keys := cachedKeys("lognormal", o.N, o.Seed, func() data.Keys { return data.LognormalPaper(o.N, o.Seed) })
	probes := data.SampleExisting(keys, o.Probes, o.Seed+1) // random order
	r := core.New(keys, core.DefaultConfig(len(keys)/2000))
	p := r.Plan()

	const batchSize = 512
	sorted := slices.Clone(probes)
	slices.Sort(sorted)
	out := make([]int, batchSize)

	single := bench.TimeLookups(probes, o.Rounds, p.Lookup)

	// Batched: one measurement op = one batchSize-probe batch of stream;
	// the reported number is per key. Ascending batches are what a sorting
	// caller hands in; the kernel needs no order.
	timeBatch := func(stream []uint64) time.Duration {
		var total time.Duration
		keysPerRound := 0
		for rd := 0; rd <= o.Rounds; rd++ { // round 0 is warm-up
			keysPerRound = 0
			start := time.Now()
			for lo := 0; lo < len(stream); lo += batchSize {
				hi := min(lo+batchSize, len(stream))
				p.LookupBatch(stream[lo:hi], out[:hi-lo])
				keysPerRound += hi - lo
			}
			if rd > 0 {
				total += time.Since(start)
			}
		}
		return total / time.Duration(o.Rounds*keysPerRound)
	}
	ascending := timeBatch(sorted)
	shuffled := timeBatch(probes)

	rows := []CompiledRow{
		{Config: "compiled single-key", PerKey: single, SpeedUp: 1, IdxBytes: r.SizeBytes()},
		{Config: "compiled batch, ascending probes", PerKey: ascending, SpeedUp: float64(single) / float64(ascending), Batched: true, IdxBytes: r.SizeBytes()},
		{Config: "compiled batch, shuffled probes", PerKey: shuffled, SpeedUp: float64(single) / float64(shuffled), Batched: true, IdxBytes: r.SizeBytes()},
	}

	t := &bench.Table{
		Title:   fmt.Sprintf("Compiled read path — %d keys, %d probes, batch %d", len(keys), len(probes), batchSize),
		Headers: []string{"Config", "ns/key", "Speedup"},
	}
	for _, row := range rows {
		t.Add(row.Config, ns(row.PerKey), bench.Factor(row.SpeedUp))
	}
	render(o, t)
	return rows
}
