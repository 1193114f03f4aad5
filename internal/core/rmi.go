// Package core implements the paper's primary contribution: the Recursive
// Model Index (RMI, §3) and the learned structures built from CDF models —
// hybrid indexes (§3.3), learned hash functions (§4), and learned Bloom
// filters (§5) — plus the Learning Index Framework (LIF, §3.1) that
// auto-tunes configurations.
package core

import (
	"fmt"
	"math"
	"slices"

	"learnedindex/internal/ml"
	"learnedindex/internal/search"
)

// SearchKind selects the last-mile search strategy (§3.4).
type SearchKind int

const (
	// SearchModelBiased is the paper's default: binary search whose first
	// middle point is the model prediction, restricted to the stored
	// min/max error window.
	SearchModelBiased SearchKind = iota
	// SearchBinary is plain binary search over the error window.
	SearchBinary
	// SearchQuaternary is the biased quaternary search with initial probes
	// at pos-σ, pos, pos+σ.
	SearchQuaternary
	// SearchExponential is exponential search outward from the prediction;
	// it ignores the stored error bounds entirely.
	SearchExponential
)

// String names the strategy for reports.
func (s SearchKind) String() string {
	switch s {
	case SearchModelBiased:
		return "model-biased"
	case SearchBinary:
		return "binary"
	case SearchQuaternary:
		return "quaternary"
	case SearchExponential:
		return "exponential"
	}
	return fmt.Sprintf("SearchKind(%d)", int(s))
}

// TopKind selects the stage-1 model family (§3.3: "simple neural nets with
// zero to two fully-connected hidden layers ... and a layer width of up to
// 32 neurons"; §3.7.1 adds multivariate regression with engineered
// features).
type TopKind int

const (
	// TopLinear is simple linear regression (equivalently a 0-hidden-layer NN).
	TopLinear TopKind = iota
	// TopMultivariate is multivariate regression over engineered features
	// (key, log key, key², √key).
	TopMultivariate
	// TopNN is a ReLU network with the configured hidden widths.
	TopNN
)

// String names the model family for reports.
func (t TopKind) String() string {
	switch t {
	case TopLinear:
		return "linear"
	case TopMultivariate:
		return "multivariate"
	case TopNN:
		return "nn"
	}
	return fmt.Sprintf("TopKind(%d)", int(t))
}

// Config specifies an RMI, mirroring Algorithm 1's inputs ("int threshold,
// int stages[], NN complexity").
type Config struct {
	// Top selects the stage-1 model family.
	Top TopKind
	// Hidden are the stage-1 hidden layer widths when Top == TopNN.
	Hidden []int
	// StageSizes are the model counts of stages 2..M. The common
	// configuration is a single entry (the 2-stage RMI of §3.7.1); more
	// entries build deeper recursive indexes. The last entry is the leaf
	// count. Empty means sized by rule from the key count (innerCount,
	// leafCount); the trained index reports what the rule chose.
	StageSizes []int
	// Search selects the last-mile strategy.
	Search SearchKind
	// HybridThreshold, when > 0, replaces leaf models whose max absolute
	// error exceeds it with B-Trees (Algorithm 1 lines 11–14).
	HybridThreshold int
	// HybridPageSize is the page size of replacement B-Trees (default 32).
	HybridPageSize int
	// SubsampleTop caps the points used to train the stage-1 model; 0 means
	// 200k (§3.6: top models converge before one full scan).
	SubsampleTop int
	// Seed makes NN training deterministic.
	Seed int64
}

// DefaultConfig returns the paper's default 2-stage shape: linear top,
// numLeaves linear leaf models, model-biased binary search. Like every
// explicit StageSizes it trains exactly that shape; the zero Config is the
// one that sizes itself (see innerCount and leafCount).
func DefaultConfig(numLeaves int) Config {
	return Config{Top: TopLinear, StageSizes: []int{numLeaves}, Search: SearchModelBiased, Seed: 1}
}

// linmod is a flattened linear model for inner and leaf stages; keeping it
// a plain struct (no interface) keeps stage transitions branch-light, the
// property §3.2 highlights ("There is no search process required in-between
// the stages").
type linmod struct {
	a, b float64
}

func (m linmod) predict(x float64) float64 { return m.a*x + m.b }

// leaf is a last-stage model with its error metadata: "we store the
// standard and min- and max-error for every model on the last stage"
// (§3.3).
type leaf struct {
	m      linmod
	minErr int32 // most negative (actual - pred) over assigned keys
	maxErr int32 // most positive (actual - pred)
	stdErr float32
	n      int32 // assigned keys
	// hybrid replacement (nil unless the leaf was swapped for a B-Tree).
	// The B-Tree is built over the keys *assigned* to this leaf (Algorithm
	// 1 trains it "on tmp_records[M][j]") and, like the paper's
	// offset-based in-memory trees (§6), stores no key copies: btPos holds
	// the assigned keys' global positions, and btSep is a sparse separator
	// level (every 64th assigned key) for the tree descent; the final page
	// search reads the main array through the offsets.
	btPos []int32
	btSep []uint64
}

// regAcc accumulates centered least-squares sums plus position coverage for
// one stage model. Centering on the first routed point keeps the normal
// equations conditioned even for nanosecond-scale timestamp keys.
type regAcc struct {
	n              float64
	xref, yref     float64
	sx, sy         float64
	sxx, sxy       float64
	seen           bool
	minPos, maxPos int32
}

func (a *regAcc) add(x, y float64, pos int32) {
	if !a.seen {
		a.xref, a.yref = x, y
		a.seen = true
		a.minPos, a.maxPos = pos, pos
	}
	dx, dy := x-a.xref, y-a.yref
	a.n++
	a.sx += dx
	a.sy += dy
	a.sxx += dx * dx
	a.sxy += dx * dy
	if pos < a.minPos {
		a.minPos = pos
	}
	if pos > a.maxPos {
		a.maxPos = pos
	}
}

// fit produces the least-squares line from the centered sums.
func (a *regAcc) fit() linmod {
	if a.n == 0 {
		return linmod{}
	}
	mx, my := a.sx/a.n, a.sy/a.n
	vxx := a.sxx - a.n*mx*mx
	vxy := a.sxy - a.n*mx*my
	if vxx <= 0 {
		return linmod{a: 0, b: a.yref + my}
	}
	slope := vxy / vxx
	// un-center: y = (yref + my) + slope*(x - (xref + mx))
	return linmod{a: slope, b: a.yref + my - slope*(a.xref+mx)}
}

// RMI is a recursive model index over a sorted array of uint64 keys.
type RMI struct {
	keys   []uint64
	cfg    Config
	top    ml.Model
	stages [][]linmod // inner stages (all StageSizes entries but the last)
	leaves []leaf
	nf     float64 // float64(len(keys))
	// routeMul[s] is the precomputed ⌊M·f(x)/N⌋ routing multiplier
	// float64(StageSizes[s])/nf, hoisted so neither training's stage loop
	// nor the interpreted lookup path divides per routed key.
	routeMul []float64
	// plan is the compiled read path (see plan.go), built once after
	// training or decoding.
	plan *Plan
	// global error stats for reporting
	meanAbsErr float64
	maxAbsErr  int
	numHybrid  int
}

// New trains an RMI over keys (sorted ascending, unique) with cfg,
// following Algorithm 1: train the top model, partition keys through the
// stages, fit each stage's models on the keys routed to them, and compute
// per-leaf min/max errors (optionally swapping bad leaves for B-Trees).
// Stage training runs on a bounded worker pool sized to GOMAXPROCS (see
// train_parallel.go); results are bit-identical to the sequential trainer.
func New(keys []uint64, cfg Config) *RMI {
	return NewWithTrainWorkers(keys, cfg, TrainingWorkers(len(keys)))
}

// NewWithTrainWorkers trains like New with an explicit stage-training
// worker count: 1 selects the sequential trainer, higher counts the
// parallel one. Serialized results are bit-identical for every count (the
// parallel trainer preserves per-model accumulation order — pinned by
// TestParallelTrainerBitIdentical), so the knob only trades wall-clock
// for cores; it exists for train-scaling benchmarks and tuning.
func NewWithTrainWorkers(keys []uint64, cfg Config, workers int) *RMI {
	if workers < 1 {
		workers = 1
	}
	// The trainer owns its stage sizes: callers share one Config across
	// concurrent retrains, so theirs is never written through.
	byRule := len(cfg.StageSizes) == 0
	if byRule {
		cfg.StageSizes = []int{innerCount(len(keys)), leafCount(len(keys))}
	} else {
		cfg.StageSizes = slices.Clone(cfg.StageSizes)
		for i, s := range cfg.StageSizes {
			if s < 1 {
				cfg.StageSizes[i] = 1
			}
		}
	}
	if cfg.HybridPageSize <= 0 {
		cfg.HybridPageSize = 32
	}
	r := &RMI{keys: keys, cfg: cfg, nf: float64(len(keys))}
	if len(keys) == 0 {
		r.top = ml.Linear{}
		r.leaves = make([]leaf, 1)
		r.plan = r.compile()
		return r
	}
	xs, ys := r.trainTop()
	if byRule {
		r.fitSampledInner(xs, ys)
	}
	r.initRouteMul()
	if workers > 1 {
		r.trainStagesParallel(workers)
	} else {
		r.trainStages()
	}
	r.plan = r.compile()
	return r
}

// initRouteMul precomputes the per-stage routing multipliers from cfg and
// the key count. Must run before any routeTo call.
func (r *RMI) initRouteMul() {
	r.routeMul = make([]float64, len(r.cfg.StageSizes))
	for s, size := range r.cfg.StageSizes {
		if r.nf > 0 {
			r.routeMul[s] = float64(size) / r.nf
		}
	}
}

// Stage sizing for the zero Config (empty StageSizes): the rule every
// serving plane trains under, since in-memory shards, segment writers,
// compactions, followers and the string prefix index all pass it.
//
// Leaves: one per leafKeys keys (the paper's sweet spot is ~1k–20k keys per
// leaf at 200M keys), at least minLeaves.
//
// Inner stage: a linear top routes by key *value*, so on a skewed CDF most
// keys land in a handful of leaves and a leaf's error window is as wide as
// its population (§3.3: stages exist so no one model covers a skewed CDF).
// One inner linear stage of clamp(n/innerKeys, minInner, maxInner) models,
// fit on the top's own training sample (§3.6: upper models converge long
// before a full scan), re-routes by predicted *position*, which is
// equal-population routing: every leaf then fits ~leafKeys keys. Measured on
// σ=2 lognormal keys (README "What a plan is sized to" has every size class):
// a 1M–2M-key plan's median last-mile window is ~37 keys (p99 60–100)
// instead of 2^9–2^12; a 4k–64k-key plan's median is 60–180 with a p99 of
// 1–3k, because its first and last leaf span decades of key value; DocID
// prefixes stop near 2^8. It costs 16 B per inner model (≤ 0.0625 B/key
// from 4k keys up) and one more multiply-add per lookup.
const (
	leafKeys  = 1000
	minLeaves = 16
	innerKeys = 256
	minInner  = 16
	maxInner  = 1024
)

// leafCount is the zero Config's last-stage size for n keys.
func leafCount(n int) int {
	return max(n/leafKeys, minLeaves)
}

// innerCount is the zero Config's inner-stage size for n keys.
func innerCount(n int) int {
	return min(max(n/innerKeys, minInner), maxInner)
}

// fitSampledInner fits the first inner stage on (xs, ys), the top model's
// (key, position) sample, so the full-pass trainers start at the stage
// after it.
func (r *RMI) fitSampledInner(xs, ys []float64) {
	size := r.cfg.StageSizes[0]
	mul := float64(size) / r.nf
	accs := make([]regAcc, size)
	for i, x := range xs {
		accs[scaleByMul(r.top.Predict(x), mul, size)].add(x, ys[i], int32(ys[i]))
	}
	r.stages = [][]linmod{fitModels(accs)}
}

// trainTop fits the stage-1 model on (key, position) pairs, subsampled per
// §3.6 with an even stride so the sample covers the whole CDF, and returns
// the sample.
func (r *RMI) trainTop() (xs, ys []float64) {
	n := len(r.keys)
	max := r.cfg.SubsampleTop
	if max <= 0 {
		max = 200_000
	}
	stride := 1
	if n > max {
		stride = n / max
	}
	m := (n + stride - 1) / stride
	xs = make([]float64, 0, m)
	ys = make([]float64, 0, m)
	for i := 0; i < n; i += stride {
		xs = append(xs, float64(r.keys[i]))
		ys = append(ys, float64(i))
	}
	switch r.cfg.Top {
	case TopMultivariate:
		r.top = ml.FitMultivariate(xs, ys, nil)
	case TopNN:
		cfg := ml.DefaultNNConfig(r.cfg.Hidden...)
		cfg.Seed = r.cfg.Seed
		r.top = ml.TrainNN(xs, ys, cfg)
	default:
		r.top = ml.FitLinear(xs, ys)
	}
	return xs, ys
}

// routeTo runs the trained model prefix and returns the model index of
// stage `stage` for key x. Stages before `stage` must already be fit.
func (r *RMI) routeTo(x float64, stage int) int {
	p := r.top.Predict(x)
	idx := scaleByMul(p, r.routeMul[0], r.cfg.StageSizes[0])
	for s := 1; s <= stage; s++ {
		p = r.stages[s-1][idx].predict(x)
		idx = scaleByMul(p, r.routeMul[s], r.cfg.StageSizes[s])
	}
	return idx
}

// scaleToIndex converts a position estimate p over [0, n) to a model index
// in [0, size): the ⌊M·f(x)/N⌋ routing of §3.2. Hot paths precompute
// size/n and call scaleByMul instead of dividing per key.
func scaleToIndex(p, n float64, size int) int {
	return scaleByMul(p, float64(size)/n, size)
}

// scaleByMul is scaleToIndex with the size/n ratio already computed: one
// multiply plus the clamp.
func scaleByMul(p, mul float64, size int) int {
	i := int(p * mul)
	if i < 0 {
		return 0
	}
	if i >= size {
		return size - 1
	}
	return i
}

// trainStages implements the stage-wise loop of Algorithm 1 using
// constant-memory accumulation: for each stage, keys are routed through the
// already-trained prefix, and each model is fit with closed-form linear
// regression over per-model centered sums.
func (r *RMI) trainStages() {
	n := len(r.keys)
	nStages := len(r.cfg.StageSizes)
	route := make([]int32, n) // leaf routing, reused by the error pass

	for s := len(r.stages); s < nStages; s++ { // the zero Config's inner stage is already fit
		size := r.cfg.StageSizes[s]
		accs := make([]regAcc, size)
		for i := 0; i < n; i++ {
			x := float64(r.keys[i])
			idx := r.routeTo(x, s)
			route[i] = int32(idx)
			accs[idx].add(x, float64(i), int32(i))
		}
		models := fitModels(accs)
		if s < nStages-1 {
			r.stages = append(r.stages, models)
			continue
		}
		// Last stage: per-leaf min/max/std errors, then hybrid replacement.
		r.leaves = make([]leaf, size)
		for j := range r.leaves {
			r.leaves[j].m = models[j]
		}
		r.computeLeafErrors(route)
		if r.cfg.HybridThreshold > 0 {
			r.applyHybrid(route)
		}
	}
}

// fitModels turns one stage's accumulators into its models.
func fitModels(accs []regAcc) []linmod {
	models := make([]linmod, len(accs))
	for j := range models {
		models[j] = accs[j].fit()
	}
	repairEmpty(models, accs)
	return models
}

// repairEmpty fills models that received no training keys with constants
// carried over from the previous covered model's position range, so a
// query key routed into a hole still gets a nearby prediction.
func repairEmpty(models []linmod, accs []regAcc) {
	lastPos := 0.0
	for j := range models {
		if accs[j].n > 0 {
			lastPos = float64(accs[j].maxPos)
			continue
		}
		models[j] = linmod{a: 0, b: lastPos}
	}
}

// leafErrAcc accumulates one leaf's error statistics: worst over/under
// prediction, the moments behind the standard error, and the assigned-key
// count. Shared by the sequential and parallel error passes, which both
// feed each leaf's accumulator in ascending key order so the
// floating-point sums are bit-identical between trainers.
type leafErrAcc struct {
	min, max   int
	sum, sumsq float64
	n          int
}

func newLeafErrAccs(n int) []leafErrAcc {
	errs := make([]leafErrAcc, n)
	for i := range errs {
		errs[i].min = math.MaxInt32
		errs[i].max = math.MinInt32
	}
	return errs
}

// add folds one key's error d = actual - predicted into the accumulator.
func (ev *leafErrAcc) add(d int) {
	if d < ev.min {
		ev.min = d
	}
	if d > ev.max {
		ev.max = d
	}
	fd := float64(d)
	ev.sum += fd
	ev.sumsq += fd * fd
	ev.n++
}

// finalizeLeafErrors turns the accumulated moments into each leaf's stored
// error window and standard error.
func finalizeLeafErrors(leaves []leaf, errs []leafErrAcc) {
	for j := range leaves {
		lf := &leaves[j]
		ev := &errs[j]
		lf.n = int32(ev.n)
		if ev.n == 0 {
			lf.minErr, lf.maxErr, lf.stdErr = -1, 1, 1
			continue
		}
		lf.minErr = int32(ev.min)
		lf.maxErr = int32(ev.max)
		mean := ev.sum / float64(ev.n)
		v := ev.sumsq/float64(ev.n) - mean*mean
		if v < 0 {
			v = 0
		}
		lf.stdErr = float32(math.Sqrt(v))
	}
}

// computeLeafErrors executes the leaf model for every key and stores "the
// worst over- and under-prediction per last-stage model" (§3.4) plus the
// standard error used by biased quaternary search.
func (r *RMI) computeLeafErrors(route []int32) {
	errs := newLeafErrAccs(len(r.leaves))
	var g globalErr
	for i, k := range r.keys {
		j := route[i]
		pred := int(r.leaves[j].m.predict(float64(k)))
		// d is actual-minus-predicted, so the lookup window is
		// [pred+minErr, pred+maxErr].
		d := i - pred
		errs[j].add(d)
		g.add(d)
	}
	finalizeLeafErrors(r.leaves, errs)
	r.setGlobalErr(g)
}

// globalErr accumulates the index-wide error stats. The sum of |d| is kept
// as an integer, so it is exact and order-free: the parallel trainer's
// workers each fold their own keys and merge, and the mean still comes out
// bit-identical to the sequential trainer's.
type globalErr struct {
	sum uint64
	max int
}

func (g *globalErr) add(d int) {
	if d < 0 {
		d = -d
	}
	g.sum += uint64(d)
	if d > g.max {
		g.max = d
	}
}

func (r *RMI) setGlobalErr(g globalErr) {
	r.meanAbsErr = float64(g.sum) / float64(len(r.keys))
	r.maxAbsErr = g.max
}

// applyHybrid swaps leaves whose max absolute error exceeds the threshold
// for B-Trees over the keys assigned to them (Algorithm 1 lines 11–14:
// "index[M][j] = new B-Tree trained on tmp_records[M][j]"). "hybrid
// indexes allow us to bound the worst case performance of learned indexes
// to the performance of B-Trees" (§3.3).
func (r *RMI) applyHybrid(route []int32) {
	thr := r.cfg.HybridThreshold
	flagged := make(map[int32]*leaf)
	for j := range r.leaves {
		lf := &r.leaves[j]
		if lf.n == 0 {
			continue
		}
		worst := int(lf.maxErr)
		if -int(lf.minErr) > worst {
			worst = -int(lf.minErr)
		}
		if worst <= thr {
			continue
		}
		flagged[int32(j)] = lf
		lf.btPos = make([]int32, 0, lf.n)
		r.numHybrid++
	}
	if len(flagged) == 0 {
		return
	}
	// Gather assigned positions per flagged leaf in one pass; they arrive
	// in ascending order, so each offset list is sorted by key.
	for i := range r.keys {
		if lf, ok := flagged[route[i]]; ok {
			lf.btPos = append(lf.btPos, int32(i))
		}
	}
	for _, lf := range flagged {
		step := r.cfg.HybridPageSize
		lf.btSep = make([]uint64, 0, len(lf.btPos)/step+1)
		for i := 0; i < len(lf.btPos); i += step {
			lf.btSep = append(lf.btSep, r.keys[lf.btPos[i]])
		}
	}
}

// Predict runs only the model hierarchy (no search) and returns the
// estimated position plus the leaf's error window [lo, hi) — the quantity
// Figure 4's "Model (ns)" column times.
func (r *RMI) Predict(key uint64) (pos, lo, hi int) {
	x := float64(key)
	idx := r.routeTo(x, len(r.cfg.StageSizes)-1)
	lf := &r.leaves[idx]
	// The error window is anchored on the raw (unclamped) prediction — the
	// per-leaf errors were measured against it, so clamping first would
	// shift the window and break the stored-key guarantee.
	pred := int(lf.m.predict(x))
	lo = pred + int(lf.minErr)
	hi = pred + int(lf.maxErr) + 1
	lo, hi = clampWindow(lo, hi, len(r.keys))
	pos = clampInt(pred, 0, len(r.keys)-1)
	return pos, lo, hi
}

// Lookup returns the lower-bound position of key: the index of the first
// stored key >= key, or len(keys) if all are smaller. Correctness holds for
// keys not in the stored set via search-window expansion (§3.4).
func (r *RMI) Lookup(key uint64) int {
	if len(r.keys) == 0 {
		return 0
	}
	return r.lookupFrom(key, 0)
}

// LookupBatchSorted answers Lookup for every probe of an ascending batch,
// writing lower-bound positions into out (which must have len(probes)).
// Sorted probes buy two amortizations a per-key loop over an arbitrary
// stream cannot have:
//
//   - Monotone results: each answer becomes a floor for the next search —
//     a probe equal to its neighbor (or landing at the previous position)
//     skips the model and search entirely, and every window is clipped
//     from below by the previous result.
//   - Locality: ascending probes touch the key array left-to-right, so
//     the final searches hit warm cache lines instead of striding
//     randomly across the array (measured ~6x per-lookup on 1M keys).
//
// Results are identical to calling Lookup per key.
func (r *RMI) LookupBatchSorted(probes []uint64, out []int) {
	n := len(r.keys)
	floor := 0
	for i, k := range probes {
		if floor >= n {
			out[i] = n // past the last key; so is the rest of the batch
			continue
		}
		if r.keys[floor] >= k {
			out[i] = floor // previous result already is the lower bound
			continue
		}
		floor = r.lookupFrom(k, floor)
		out[i] = floor
	}
}

// lookupFrom is Lookup with a proven lower bound: the caller guarantees the
// answer is >= floor, so the search window is clipped from below. floor=0
// is the unconstrained case. len(r.keys) must be > 0.
func (r *RMI) lookupFrom(key uint64, floor int) int {
	n := len(r.keys)
	x := float64(key)
	idx := r.routeTo(x, len(r.cfg.StageSizes)-1)
	lf := &r.leaves[idx]
	if lf.btPos != nil {
		return r.lookupHybrid(key, lf)
	}
	rawPred := int(lf.m.predict(x))
	lo := rawPred + int(lf.minErr)
	hi := rawPred + int(lf.maxErr) + 1
	if lo < floor {
		lo = floor
	}
	lo, hi = clampWindow(lo, hi, n)
	pred := clampInt(rawPred, 0, n-1)
	switch r.cfg.Search {
	case SearchBinary:
		return search.BoundedWithExpansion(r.keys, key, lo, hi)
	case SearchQuaternary:
		pos := search.BiasedQuaternary(r.keys, key, lo, hi, pred, int(lf.stdErr))
		return r.verifyOrExpand(key, pos, lo, hi)
	case SearchExponential:
		return search.Exponential(r.keys, key, n, pred)
	default: // SearchModelBiased
		pos := search.ModelBiasedBinary(r.keys, key, lo, hi, pred)
		return r.verifyOrExpand(key, pos, lo, hi)
	}
}

// lookupHybrid answers a lookup routed to a B-Tree leaf: descend the
// sparse separator level, binary-search the page of assigned offsets, and
// resolve the (usually tiny) gap between assigned positions against the
// main array. Covers keys never assigned here as well.
func (r *RMI) lookupHybrid(key uint64, lf *leaf) int {
	n := len(r.keys)
	if len(lf.btPos) == 0 {
		return search.Binary(r.keys, key, 0, n)
	}
	// Separator descent: last separator <= key marks the page.
	s := search.Binary(lf.btSep, key, 0, len(lf.btSep)) // first sep >= key
	lo := 0
	if s > 0 {
		lo = (s - 1) * r.cfg.HybridPageSize
	}
	hi := lo + r.cfg.HybridPageSize
	if hi > len(lf.btPos) {
		hi = len(lf.btPos)
	}
	// Page search over the offsets (reading keys through them).
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.keys[lf.btPos[mid]] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	p := lo
	switch {
	case p == 0:
		// key <= first assigned key: bound is in [0, btPos[0]].
		return search.Binary(r.keys, key, 0, int(lf.btPos[0])+1)
	case p == len(lf.btPos):
		// all assigned keys are smaller: bound is after the last one.
		return search.Binary(r.keys, key, int(lf.btPos[p-1])+1, n)
	default:
		// assigned[p-1] < key <= assigned[p]: the global bound lies in
		// (btPos[p-1], btPos[p]].
		return search.Binary(r.keys, key, int(lf.btPos[p-1])+1, int(lf.btPos[p])+1)
	}
}

// verifyOrExpand checks whether a window-restricted result is globally
// correct and re-searches with expansion when it sits incorrectly on the
// window boundary (the §3.4 non-monotonic-model remedy).
func (r *RMI) verifyOrExpand(key uint64, pos, lo, hi int) int {
	return verifyOrExpandIn(r.keys, key, pos, lo, hi)
}

// verifyOrExpandIn is verifyOrExpand over an explicit key array, shared
// with the compiled read path (plan.go).
func verifyOrExpandIn(keys []uint64, key uint64, pos, lo, hi int) int {
	n := len(keys)
	if pos == lo && lo > 0 && keys[lo-1] >= key {
		return search.BoundedWithExpansion(keys, key, 0, lo+1)
	}
	if pos == hi && hi < n {
		return search.BoundedWithExpansion(keys, key, hi-1, n)
	}
	return pos
}

// Contains reports whether key is stored.
func (r *RMI) Contains(key uint64) bool {
	p := r.Lookup(key)
	return p < len(r.keys) && r.keys[p] == key
}

// RangeScan returns the position range [start, end) of stored keys k with
// loKey <= k < hiKey.
func (r *RMI) RangeScan(loKey, hiKey uint64) (start, end int) {
	return r.Lookup(loKey), r.Lookup(hiKey)
}

// Keys returns the indexed array.
func (r *RMI) Keys() []uint64 { return r.keys }

// Plan returns the compiled read path: the flat inference plan built from
// this index at training (or decode) time. Bit-identical results to Lookup
// at a fraction of the dispatch cost; see plan.go.
func (r *RMI) Plan() *Plan { return r.plan }

// NumLeaves returns the last-stage model count.
func (r *RMI) NumLeaves() int { return len(r.leaves) }

// NumHybrid returns how many leaves were replaced by B-Trees.
func (r *RMI) NumHybrid() int { return r.numHybrid }

// MeanAbsErr returns the average absolute position error over stored keys.
func (r *RMI) MeanAbsErr() float64 { return r.meanAbsErr }

// MaxAbsErr returns the worst absolute position error over stored keys.
func (r *RMI) MaxAbsErr() int { return r.maxAbsErr }

// Config returns the training configuration.
func (r *RMI) Config() Config { return r.cfg }

// SizeBytes returns the index footprint: top model, inner stage models (16
// bytes each), and leaves (16-byte model + 12 bytes of error metadata),
// matching the paper's convention of excluding the data array. Hybrid
// B-Trees are charged in full.
func (r *RMI) SizeBytes() int {
	total := r.top.SizeBytes()
	for _, st := range r.stages {
		total += len(st) * 16
	}
	total += len(r.leaves) * (16 + 12)
	for j := range r.leaves {
		// Hybrid B-Trees: 4-byte offsets per assigned key plus 8-byte
		// separators per page — no key copies.
		total += len(r.leaves[j].btPos)*4 + len(r.leaves[j].btSep)*8
	}
	return total
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// clampWindow clips an error window into [0, n] and guarantees lo <= hi, so
// degenerate (empty or inverted) windows degrade into an empty range that
// the boundary-expansion path then widens.
func clampWindow(lo, hi, n int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
