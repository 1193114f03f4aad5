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
	SpeedUp  float64 // vs the interpreted equivalent
	Batched  bool
	IdxBytes int
}

// Compiled measures the compiled read path (core.Plan) against the
// interpreted model-tree walk on the same trained RMI: single-key lookups,
// sorted-batch lookups, and the group-interleaved unsorted batch executor.
// This is the PR's pinned claim — model inference at the §3.2 cost (a
// handful of multiply-adds plus a tiny bounded search), with batching
// turning dependent cache misses into overlapping ones.
func Compiled(o Options) []CompiledRow {
	o = o.withDefaults()
	keys := cachedKeys("lognormal", o.N, o.Seed, func() data.Keys { return data.LognormalPaper(o.N, o.Seed) })
	probes := data.SampleExisting(keys, o.Probes, o.Seed+1)
	r := core.New(keys, core.DefaultConfig(len(keys)/2000))
	p := r.Plan()

	const batchSize = 512
	sorted := append([]uint64(nil), probes...)
	slices.Sort(sorted)
	out := make([]int, batchSize)

	// Single-key paths.
	interp := bench.TimeLookups(probes, o.Rounds, r.Lookup)
	compiled := bench.TimeLookups(probes, o.Rounds, p.Lookup)

	// Batched paths: one measurement op = one batchSize-probe batch; the
	// reported number is per key. Batches are pre-sorted slices of the
	// probe set, the shape serve's batch prologue produces.
	timeBatch := func(fn func(batch []uint64, out []int)) time.Duration {
		var total time.Duration
		keysPerRound := 0
		for rd := 0; rd <= o.Rounds; rd++ { // round 0 is warm-up
			keysPerRound = 0
			start := time.Now()
			for lo := 0; lo < len(sorted); lo += batchSize {
				hi := lo + batchSize
				if hi > len(sorted) {
					hi = len(sorted)
				}
				fn(sorted[lo:hi], out[:hi-lo])
				keysPerRound += hi - lo
			}
			if rd > 0 {
				total += time.Since(start)
			}
		}
		return total / time.Duration(o.Rounds*keysPerRound)
	}
	interpBatch := timeBatch(r.LookupBatchSorted)
	compiledBatch := timeBatch(p.LookupBatchSorted)
	compiledUnsorted := timeBatch(func(batch []uint64, out []int) { p.LookupBatch(batch, out) })

	rows := []CompiledRow{
		{Config: "interpreted single-key", PerKey: interp, SpeedUp: 1, IdxBytes: r.SizeBytes()},
		{Config: "compiled single-key", PerKey: compiled, SpeedUp: float64(interp) / float64(compiled), IdxBytes: r.SizeBytes()},
		{Config: "interpreted batch-sorted", PerKey: interpBatch, SpeedUp: 1, Batched: true, IdxBytes: r.SizeBytes()},
		{Config: "compiled batch-sorted", PerKey: compiledBatch, SpeedUp: float64(interpBatch) / float64(compiledBatch), Batched: true, IdxBytes: r.SizeBytes()},
		{Config: "compiled batch-interleaved", PerKey: compiledUnsorted, SpeedUp: float64(interp) / float64(compiledUnsorted), Batched: true, IdxBytes: r.SizeBytes()},
	}

	t := &bench.Table{
		Title:   fmt.Sprintf("Compiled vs interpreted read path — %d keys, %d probes, batch %d", len(keys), len(probes), batchSize),
		Headers: []string{"Config", "ns/key", "Speedup"},
	}
	for _, row := range rows {
		t.Add(row.Config, ns(row.PerKey), bench.Factor(row.SpeedUp))
	}
	render(o, t)
	return rows
}
