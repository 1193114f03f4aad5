package experiments

import (
	"fmt"
	"time"

	"learnedindex/internal/bench"
	"learnedindex/internal/core"
	"learnedindex/internal/data"
	"learnedindex/internal/search"
)

// ShootoutRow is one search strategy's measurement over the shared
// window set.
type ShootoutRow struct {
	Strategy string
	PerProbe time.Duration
	SpeedUp  float64 // vs plain binary
}

// SearchShootout compares the §3.4 last-mile strategies — binary,
// model-biased, biased quaternary, exponential — plus the branchless
// lower-bound loop every compiled plan runs and an interpolated search,
// on *identical* windows: one RMI is trained once, every probe's
// predicted window (lo, hi, pred) is precomputed, and each strategy then
// resolves exactly the same windows. This isolates pure search cost from
// model cost, which a full-lookup comparison (where each strategy
// retrains) cannot do. Every window-restricted strategy is followed by
// the same §3.4 window check (search.VerifyOrExpand), so all of them are
// compared at equal, globally correct semantics.
func SearchShootout(o Options) []ShootoutRow {
	o = o.withDefaults()
	keys := cachedKeys("lognormal", o.N, o.Seed, func() data.Keys { return data.LognormalPaper(o.N, o.Seed) })
	probes := data.SampleExisting(keys, o.Probes, o.Seed+1)
	r := core.New(keys, core.DefaultConfig(len(keys)/2000))

	// Precompute identical windows for every probe. sigma approximates the
	// per-leaf standard error as a fixed share of the window (the leaf's
	// true σ is an internal; the quaternary probes only need its scale).
	wins := make([]win, len(probes))
	for i, k := range probes {
		pos, lo, hi := r.Predict(k)
		wins[i] = win{lo: lo, hi: hi, pred: pos, sigma: (hi-lo)/6 + 1}
	}

	n := len(keys)
	strategies := []struct {
		name string
		fn   func(k uint64, w win) int
	}{
		{"binary", func(k uint64, w win) int {
			return search.VerifyOrExpand(keys, k, search.Binary(keys, k, w.lo, w.hi), w.lo, w.hi)
		}},
		{"branchless", func(k uint64, w win) int {
			return search.BranchlessWithExpansion(keys, k, w.lo, w.hi)
		}},
		{"model-biased", func(k uint64, w win) int {
			return search.VerifyOrExpand(keys, k, search.ModelBiasedBinary(keys, k, w.lo, w.hi, w.pred), w.lo, w.hi)
		}},
		{"interpolated", func(k uint64, w win) int {
			return search.VerifyOrExpand(keys, k, search.Interpolated(keys, k, w.lo, w.hi), w.lo, w.hi)
		}},
		{"quaternary", func(k uint64, w win) int {
			return search.VerifyOrExpand(keys, k, search.BiasedQuaternary(keys, k, w.lo, w.hi, w.pred, w.sigma), w.lo, w.hi)
		}},
		{"exponential", func(k uint64, w win) int {
			return search.Exponential(keys, k, n, w.pred)
		}},
	}

	timeOne := func(fn func(k uint64, w win) int) time.Duration {
		var sink int
		for i, k := range probes { // warm-up
			sink += fn(k, wins[i])
		}
		start := time.Now()
		for rd := 0; rd < o.Rounds; rd++ {
			for i, k := range probes {
				sink += fn(k, wins[i])
			}
		}
		el := time.Since(start)
		_ = sink
		return el / time.Duration(o.Rounds*len(probes))
	}

	var rows []ShootoutRow
	var baseline time.Duration
	t := &bench.Table{
		Title:   fmt.Sprintf("Search shootout — identical windows, %d keys, %d probes (avg window %.1f)", n, len(probes), avgWindow(wins)),
		Headers: []string{"Strategy", "ns/probe", "Speedup"},
	}
	for _, s := range strategies {
		d := timeOne(s.fn)
		if s.name == "binary" {
			baseline = d
		}
		row := ShootoutRow{Strategy: s.name, PerProbe: d, SpeedUp: float64(baseline) / float64(d)}
		rows = append(rows, row)
		t.Add(s.name, ns(d), bench.Factor(row.SpeedUp))
	}
	render(o, t)
	return rows
}

// win is one probe's precomputed search window.
type win struct {
	lo, hi, pred, sigma int
}

func avgWindow(wins []win) float64 {
	if len(wins) == 0 {
		return 0
	}
	total := 0
	for _, w := range wins {
		total += w.hi - w.lo
	}
	return float64(total) / float64(len(wins))
}
