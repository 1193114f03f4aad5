package core

import (
	"runtime"
	"sync"
)

// Parallel stage training. The paper's §3.6 observation is that RMI
// training is "a couple of lines of code" and embarrassingly parallel
// once stage-1 routing is known: every stage-2+ model is fit over a
// disjoint key subset. This file exploits that on a bounded worker pool
// (GOMAXPROCS) while keeping the result *bit-identical* to the
// sequential trainer in rmi.go — not just equivalent: the serialized
// bytes match (pinned by TestParallelTrainerBitIdentical and the golden
// hash), so the parallel path can never drift behind the sequential one.
//
// Determinism comes from preserving accumulation order, not from luck:
//
//   - The routing pass writes route[i] — pure integer results of the
//     already-trained prefix — and parallelizes over key chunks.
//   - The fit pass parallelizes over *model ranges*: each worker scans
//     the route array front to back and folds only its own models'
//     keys, so every model's centered least-squares sums see exactly
//     the key order the sequential loop would have produced.
//   - The leaf error pass works the same way per leaf, and the global
//     mean-absolute-error — the one sum the sequential loop interleaves
//     across leaves — is an integer sum, exact in any order.

const (
	// parallelTrainMinKeys is the key count below which New always picks
	// the sequential trainer — goroutine fan-out costs more than it saves.
	parallelTrainMinKeys = 1 << 16
	// trainKeysPerWorker floors the per-worker share so tiny stages do not
	// shard across the whole machine.
	trainKeysPerWorker = 1 << 14
)

// TrainingWorkers picks the stage-training worker count for n keys: 1
// (the sequential trainer) on single-CPU hosts or small inputs, otherwise
// GOMAXPROCS clamped so every worker has a meaningful share. The storage
// engine's segment build uses the same rule to decide when a model fit and
// a Bloom filter build run side by side.
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
// and runs fn on each concurrently, returning after all complete. With
// workers <= 1 it degenerates to a direct call — the bounded pool is the
// caller's GOMAXPROCS-derived worker count, not a global queue.
func parallelChunks(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// trainStagesParallel is trainStages on a worker pool: per stage, a
// parallel routing pass over key chunks, then a parallel fit pass over
// model ranges. See the file comment for why the results are
// bit-identical to the sequential trainer.
func (r *RMI) trainStagesParallel(workers int) {
	n := len(r.keys)
	nStages := len(r.cfg.StageSizes)
	route := make([]int32, n) // leaf routing, reused by the error pass

	for s := len(r.stages); s < nStages; s++ { // the zero Config's inner stage is already fit
		size := r.cfg.StageSizes[s]

		// Routing pass: pure reads of the trained prefix, so key chunks
		// are independent. This is where the expensive per-key model
		// execution (NN tops, multi-stage prefixes) lives.
		parallelChunks(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				route[i] = int32(r.routeTo(float64(r.keys[i]), s))
			}
		})

		// Fit pass: each worker owns a contiguous model range and folds
		// its models' keys in ascending key order — the same order the
		// sequential loop feeds each accumulator.
		accs := make([]regAcc, size)
		models := make([]linmod, size)
		parallelChunks(size, workers, func(jlo, jhi int) {
			lo32, hi32 := int32(jlo), int32(jhi)
			for i := 0; i < n; i++ {
				if j := route[i]; j >= lo32 && j < hi32 {
					accs[j].add(float64(r.keys[i]), float64(i), int32(i))
				}
			}
			for j := jlo; j < jhi; j++ {
				models[j] = accs[j].fit()
			}
		})
		repairEmpty(models, accs)

		if s < nStages-1 {
			r.stages = append(r.stages, models)
			continue
		}
		r.leaves = make([]leaf, size)
		for j := range r.leaves {
			r.leaves[j].m = models[j]
		}
		r.computeLeafErrorsParallel(route, workers)
		if r.cfg.HybridThreshold > 0 {
			r.applyHybrid(route)
		}
	}
}

// computeLeafErrorsParallel is computeLeafErrors over model-range workers.
// Per-leaf accumulators see their keys in ascending order (bit-identical
// to sequential); the index-wide stats are integers (globalErr), so each
// worker folds its own leaves' keys and the merge order does not matter.
func (r *RMI) computeLeafErrorsParallel(route []int32, workers int) {
	n := len(r.keys)
	errs := newLeafErrAccs(len(r.leaves))
	var mu sync.Mutex
	var total globalErr
	parallelChunks(len(r.leaves), workers, func(jlo, jhi int) {
		var g globalErr
		lo32, hi32 := int32(jlo), int32(jhi)
		for i := 0; i < n; i++ {
			j := route[i]
			if j < lo32 || j >= hi32 {
				continue
			}
			d := i - int(r.leaves[j].m.predict(float64(r.keys[i])))
			errs[j].add(d)
			g.add(d)
		}
		mu.Lock()
		total.sum += g.sum
		total.max = max(total.max, g.max)
		mu.Unlock()
	})
	finalizeLeafErrors(r.leaves, errs)
	r.setGlobalErr(total)
}
