package core

import (
	"runtime"
	"sync"

	"learnedindex/internal/ml"
)

// Stage training by runs. Algorithm 1 fits each stage's models on the keys
// the stages above route to them. A linear model routes key x to
// clamp(⌊(a·x + b)·M/N⌋): the uint64→float64 conversion, the multiply, the
// add, the scale, the truncation and the clamp each preserve order (or,
// for a < 0, reverse it), so over any range of consecutive keys that one
// linear model routes, the next-stage index is monotone in key order. The
// keys that range sends to each next-stage model are therefore contiguous,
// and bisection finds where each piece ends exactly, with O(log n) model
// evaluations instead of one per key.
//
// The trainer works on runs — [lo, hi) ranges of key positions labelled
// with the model they route to — one stage at a time:
//
//   - A linear top splits [0, n) by bisection. A non-linear top (NN,
//     multivariate) is not monotone: it routes every key once, in parallel
//     chunks, and the result is run-length encoded.
//   - Every later stage splits each run of the stage before it under the
//     run's own (linear) model, in key order. A model may receive several
//     runs: neighbouring inner models overlap, or leave models empty.
//   - A stage is fit by grouping its runs by model, each model's runs in
//     key order, and folding them into its least-squares sums. A leaf
//     measures its §3.3 error window over the same runs right after its
//     fit, while its keys are still in cache.
//
// StringRMI's leaves are the same leaf stage: its character-level network
// top routes per point, and the leaves fit over the keys' 8-byte prefixes.
// It picks its hybrid B-Tree leaves from the measured windows itself.
//
// Fits run in parallel over model ranges that hold about equal numbers of
// keys. Every model sees its keys in ascending order whichever worker owns
// it — the order a per-key pass feeds it — and the one index-wide sum, of
// |error|, is an integer, so the serialized bytes are the same for every
// worker count and the same as per-key training (TestRunTrainerMatchesPerKey,
// FuzzRunTrainer). Beyond the §3.6 sample, a train's scratch is O(runs):
// no per-key array.

const (
	// parallelTrainMinKeys is the key count below which New trains on the
	// calling goroutine alone — goroutine fan-out costs more than it saves.
	parallelTrainMinKeys = 1 << 16
	// trainKeysPerWorker floors the per-worker share so tiny stages do not
	// shard across the whole machine.
	trainKeysPerWorker = 1 << 14
)

// TrainingWorkers picks the training worker count for n keys: 1 on
// single-CPU hosts or small inputs, otherwise GOMAXPROCS clamped so every
// worker has a meaningful share. The storage engine's segment build uses
// the same rule to decide when a model fit and a Bloom filter build run
// side by side.
func TrainingWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 || n < parallelTrainMinKeys {
		return 1
	}
	if max := n / trainKeysPerWorker; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelChunks splits [0, n) into at most `workers` contiguous chunks
// and runs fn(c, lo, hi) on chunk c; see parallelRanges.
func parallelChunks(n, workers int, fn func(c, lo, hi int)) {
	workers = min(workers, n)
	if workers < 1 {
		return
	}
	bounds := make([]int, workers+1)
	for w := range bounds {
		bounds[w] = w * n / workers
	}
	parallelRanges(bounds, fn)
}

// parallelRanges runs fn(c, bounds[c], bounds[c+1]) for every range c and
// returns after all complete: one range runs on the calling goroutine,
// several on one goroutine each — the bounded pool is the caller's
// GOMAXPROCS-derived worker count, not a global queue.
func parallelRanges(bounds []int, fn func(c, lo, hi int)) {
	if len(bounds) == 2 {
		fn(0, bounds[0], bounds[1])
		return
	}
	var wg sync.WaitGroup
	for c := 0; c+1 < len(bounds); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, bounds[c], bounds[c+1])
		}(c)
	}
	wg.Wait()
}

// run is a range [lo, hi) of key positions that one stage routes to its
// model m.
type run struct {
	lo, hi, m int32
}

// train fits the stages the sample did not (all but the zero Config's
// inner stage) and the leaves, over runs.
func (r *RMI) train(workers int) {
	runs := routeRuns(r.keys, r.top, r.routeMul[0], r.cfg.StageSizes[0], workers)
	last := len(r.cfg.StageSizes) - 1
	for s := 0; s < last; s++ {
		if s == len(r.stages) {
			r.stages = append(r.stages, r.fitStage(groupRuns(runs, r.cfg.StageSizes[s]), workers))
		}
		size := r.cfg.StageSizes[s+1]
		next := make([]run, 0, len(runs)+size)
		for _, rn := range runs {
			next = splitRun(next, r.keys, int(rn.lo), int(rn.hi), r.stages[s][rn.m], r.routeMul[s+1], size)
		}
		runs = next
	}
	leaves, ge := fitLeaves(r.keys, groupRuns(runs, r.cfg.StageSizes[last]), workers)
	r.leaves = leaves
	r.setGlobalErr(ge)
}

// routeRuns routes ascending xs (the keys, or the top model's sample of
// them) through the top model into runs, in order: a linear top by
// bisection, any other per point (routeEach).
func routeRuns[X uint64 | float64](xs []X, top ml.Model, mul float64, size, workers int) []run {
	if lin, ok := top.(ml.Linear); ok {
		return splitRun(nil, xs, 0, len(xs), linmod{a: lin.A, b: lin.B}, mul, size)
	}
	return routeEach(len(xs), workers, func() func(int) int {
		return func(i int) int { return scaleByMul(top.Predict(float64(xs[i])), mul, size) }
	})
}

// routeEach routes points 0..n-1 one at a time on the worker pool and
// run-length encodes the routes, in order. Each chunk asks newRoute for its
// own route function, so a route may keep per-chunk scratch.
func routeEach(n, workers int, newRoute func() func(i int) int) []run {
	parts := make([][]run, workers)
	parallelChunks(n, workers, func(c, lo, hi int) {
		route := newRoute()
		var rs []run
		for i := lo; i < hi; i++ {
			m := int32(route(i))
			if k := len(rs) - 1; k >= 0 && rs[k].m == m {
				rs[k].hi++
			} else {
				rs = append(rs, run{lo: int32(i), hi: int32(i + 1), m: m})
			}
		}
		parts[c] = rs
	})
	runs := parts[0]
	for _, rs := range parts[1:] {
		if k := len(runs) - 1; len(rs) > 0 && runs[k].m == rs[0].m {
			runs[k].hi = rs[0].hi
			rs = rs[1:]
		}
		runs = append(runs, rs...)
	}
	return runs
}

// splitRun appends to dst the runs that linear model m routes xs[lo:hi]
// to, in order. m's route is monotone over the range (see the file
// comment), so the points routed where xs[lo] goes are a prefix of what is
// left, and a bisection finds its end.
func splitRun[X uint64 | float64](dst []run, xs []X, lo, hi int, m linmod, mul float64, size int) []run {
	for lo < hi {
		t := scaleByMul(m.predict(float64(xs[lo])), mul, size)
		a, b := lo+1, hi
		for a < b {
			h := int(uint(a+b) >> 1)
			if scaleByMul(m.predict(float64(xs[h])), mul, size) == t {
				a = h + 1
			} else {
				b = h
			}
		}
		dst = append(dst, run{lo: int32(lo), hi: int32(a), m: int32(t)})
		lo = a
	}
	return dst
}

// modelRuns is one stage's runs grouped by model: model j's runs, in key
// order, are runs[at[j]:at[j+1]].
type modelRuns struct {
	runs []run
	at   []int32
}

// groupRuns groups key-ordered runs by model with a stable counting sort.
func groupRuns(runs []run, size int) modelRuns {
	at := make([]int32, size+1)
	for _, rn := range runs {
		at[rn.m+1]++
	}
	for j := 0; j < size; j++ {
		at[j+1] += at[j]
	}
	next := make([]int32, size)
	copy(next, at)
	g := modelRuns{runs: make([]run, len(runs)), at: at}
	for _, rn := range runs {
		g.runs[next[rn.m]] = rn
		next[rn.m]++
	}
	return g
}

func (g modelRuns) size() int { return len(g.at) - 1 }

func (g modelRuns) of(j int) []run { return g.runs[g.at[j]:g.at[j+1]] }

// chunks splits the models into at most `workers` contiguous ranges that
// hold about n/workers keys each, as parallelRanges bounds.
func (g modelRuns) chunks(n, workers int) []int {
	bounds := []int{0}
	if workers > 1 {
		keys := 0
		for j := 0; j < g.size()-1 && len(bounds) < workers; j++ {
			for _, rn := range g.of(j) {
				keys += int(rn.hi - rn.lo)
			}
			if keys*workers >= len(bounds)*n {
				bounds = append(bounds, j+1)
			}
		}
	}
	return append(bounds, g.size())
}

// fitStage fits one inner stage's models over their runs.
func (r *RMI) fitStage(g modelRuns, workers int) []linmod {
	accs := make([]regAcc, g.size())
	models := make([]linmod, g.size())
	parallelRanges(g.chunks(len(r.keys), workers), func(_, jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			for _, rn := range g.of(j) {
				accs[j].addRun(r.keys, int(rn.lo), int(rn.hi))
			}
			models[j] = accs[j].fit()
		}
	})
	repairEmpty(models, accs)
	return models
}

// fitLeaves fits the leaves over their runs of keys — the uint64 RMI's
// keys, or StringRMI's keys' 8-byte prefixes — and, right after each fit,
// while the leaf's keys are in cache, measures its error window.
func fitLeaves(keys []uint64, g modelRuns, workers int) ([]leaf, globalErr) {
	accs := make([]regAcc, g.size())
	models := make([]linmod, g.size())
	leaves := make([]leaf, g.size())
	var mu sync.Mutex
	var total globalErr
	parallelRanges(g.chunks(len(keys), workers), func(_, jlo, jhi int) {
		var ge globalErr
		for j := jlo; j < jhi; j++ {
			rs := g.of(j)
			for _, rn := range rs {
				accs[j].addRun(keys, int(rn.lo), int(rn.hi))
			}
			models[j] = accs[j].fit()
			ev := newLeafErrAcc()
			for _, rn := range rs {
				ev.addRun(keys, int(rn.lo), int(rn.hi), models[j], &ge)
			}
			leaves[j].setErrors(&ev)
		}
		mu.Lock()
		total.sum += ge.sum
		total.max = max(total.max, ge.max)
		mu.Unlock()
	})
	// Empty leaves have no keys to measure, so their repaired models can
	// come after the error pass.
	repairEmpty(models, accs)
	for j := range leaves {
		leaves[j].m = models[j]
	}
	return leaves, total
}
