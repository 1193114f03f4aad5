// Package experiments regenerates every table and figure of the paper's
// evaluation. Each function builds the workload, trains/builds all
// contenders, measures, and renders a table in the figure's layout. The
// same contenders back cmd/lix-bench and the root-level testing.B
// benchmarks, so every table is reproducible from either.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"learnedindex/internal/bench"
	"learnedindex/internal/data"
)

// Options scales an experiment run. The paper runs at 200M keys; defaults
// here are laptop-sized, and experiments derive their structure sizes from
// N so the paper's ratios (keys per B-Tree page, keys per RMI leaf,
// key-domain occupancy) hold at any N — except the hash experiments' leaf
// count (see Figure8).
type Options struct {
	N      int   // dataset size (default 2M for integer experiments)
	NStr   int   // string dataset size (default 200k)
	NUrl   int   // URL key-set size (default 20k)
	Probes int   // lookup probes per measurement (default 200k)
	Rounds int   // timing rounds (default 3)
	Seed   int64 // dataset seed
	Out    io.Writer
}

func (o Options) withDefaults() Options {
	if o.N <= 0 {
		o.N = 2_000_000
	}
	if o.NStr <= 0 {
		o.NStr = 200_000
	}
	if o.NUrl <= 0 {
		o.NUrl = 20_000
	}
	if o.Probes <= 0 {
		o.Probes = 200_000
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// IntegerDatasets returns the three §3.7.1 datasets in the paper's column
// order: Map, Web, Log-Normal.
func IntegerDatasets(n int, seed int64) []struct {
	Name string
	Keys data.Keys
} {
	return []struct {
		Name string
		Keys data.Keys
	}{
		{"Map Data", cachedKeys("maps", n, seed, func() data.Keys { return data.Maps(n, seed) })},
		{"Web Data", cachedKeys("weblogs", n, seed, func() data.Keys { return data.Weblogs(n, seed) })},
		{"Log-Normal", cachedKeys("lognormal", n, seed, func() data.Keys { return data.LognormalPaper(n, seed) })},
	}
}

func ns(d time.Duration) string { return fmt.Sprintf("%d", d.Nanoseconds()) }

func render(o Options, t *bench.Table) {
	if o.Out == nil {
		return
	}
	t.Render(o.Out)
}

// dsCache memoizes generated datasets per (kind, n, seed) — dense lognormal
// generation in particular is sampling-heavy, and every experiment in a
// bench run wants the same three datasets.
var dsCache sync.Map

func cachedKeys(kind string, n int, seed int64, gen func() data.Keys) data.Keys {
	k := fmt.Sprintf("%s/%d/%d", kind, n, seed)
	if v, ok := dsCache.Load(k); ok {
		return v.(data.Keys)
	}
	ks := gen()
	dsCache.Store(k, ks)
	return ks
}

func cachedStrings(kind string, n int, seed int64, gen func() []string) []string {
	k := fmt.Sprintf("%s/%d/%d", kind, n, seed)
	if v, ok := dsCache.Load(k); ok {
		return v.([]string)
	}
	ks := gen()
	dsCache.Store(k, ks)
	return ks
}
