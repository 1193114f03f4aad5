// Package core implements the paper's primary contribution: the Recursive
// Model Index (RMI, §3) and the learned structures built from CDF models —
// the string RMI with its hybrid B-Tree leaves (§3.3, §3.5), learned hash
// functions (§4), and learned Bloom filters (§5) — plus the Learning Index
// Framework (LIF, §3.1) that auto-tunes configurations.
package core

import (
	"fmt"
	"math"
	"slices"

	"learnedindex/internal/ml"
)

// This file holds the RMI's configuration, its models and error
// accumulators, and Predict, which runs the model tree as trained. Training
// (Algorithm 1) is in train_parallel.go: the top model and the zero
// Config's inner stage fit on a sample, then every later stage is split
// into contiguous key runs by bisection and fit run by run on a worker
// pool. Every lookup runs the compiled plan (plan.go).

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
	// SubsampleTop sets the stride of the stage-1 model's training sample
	// (§3.6: top models converge before one full scan); 0 means 200k. It
	// is not a cap: up to 2·SubsampleTop−1 keys every key is sampled, and
	// above that the sample takes every ⌊n/SubsampleTop⌋-th key, which is
	// between SubsampleTop and 2·SubsampleTop−1 points.
	SubsampleTop int
	// Seed makes NN training deterministic.
	Seed int64
}

// DefaultConfig returns the paper's default 2-stage shape: linear top and
// numLeaves linear leaf models. Like every explicit StageSizes it trains
// exactly that shape; the zero Config is the one that sizes itself (see
// innerCount and leafCount).
func DefaultConfig(numLeaves int) Config {
	return Config{Top: TopLinear, StageSizes: []int{numLeaves}, Seed: 1}
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

// addRun is add over keys[lo:hi] at positions lo..hi-1, in key order, with
// the sums held in registers. Runs must arrive in ascending position order.
func (a *regAcc) addRun(keys []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	if !a.seen {
		a.xref, a.yref = float64(keys[lo]), float64(lo)
		a.seen = true
		a.minPos = int32(lo)
	}
	a.maxPos = int32(hi - 1)
	xref, yref := a.xref, a.yref
	n, sx, sy, sxx, sxy := a.n, a.sx, a.sy, a.sxx, a.sxy
	for i := lo; i < hi; i++ {
		dx, dy := float64(keys[i])-xref, float64(i)-yref
		n++
		sx += dx
		sy += dy
		sxx += dx * dx
		sxy += dx * dy
	}
	a.n, a.sx, a.sy, a.sxx, a.sxy = n, sx, sy, sxx, sxy
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
	// nor Predict divides per routed key.
	routeMul []float64
	// plan is the compiled read path (see plan.go), built once after
	// training or decoding.
	plan *Plan
	// global error stats for reporting
	meanAbsErr float64
	maxAbsErr  int
}

// New trains an RMI over keys (sorted ascending, unique) with cfg,
// following Algorithm 1: train the top model, partition keys through the
// stages, fit each stage's models on the keys routed to them, and compute
// per-leaf min/max errors.
// Stages are partitioned into contiguous key runs and fit on a worker pool
// sized to GOMAXPROCS (see train_parallel.go).
func New(keys []uint64, cfg Config) *RMI {
	return NewWithTrainWorkers(keys, cfg, TrainingWorkers(len(keys)))
}

// NewWithTrainWorkers trains like New with an explicit worker count for
// the fit and error passes (1 runs them on the calling goroutine).
// Serialized results are bit-identical for every count: each model folds
// its keys in ascending order whichever worker owns it (pinned by
// TestParallelTrainerBitIdentical), so the knob only trades wall-clock for
// cores; it exists for train-scaling benchmarks and tuning.
func NewWithTrainWorkers(keys []uint64, cfg Config, workers int) *RMI {
	r, byRule := newUntrained(keys, cfg)
	if len(keys) > 0 {
		xs, ys := r.trainTop()
		if byRule {
			r.fitSampledInner(xs, ys)
		}
		r.initRouteMul()
		r.train(max(workers, 1))
	}
	r.plan = r.compile()
	return r
}

// newUntrained sizes cfg and reports whether the zero Config's rule chose
// the stage sizes. An empty key set gets its final, empty model here.
func newUntrained(keys []uint64, cfg Config) (r *RMI, byRule bool) {
	// The trainer owns its stage sizes: callers share one Config across
	// concurrent retrains, so theirs is never written through.
	byRule = len(cfg.StageSizes) == 0
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
	r = &RMI{keys: keys, cfg: cfg, nf: float64(len(keys))}
	if len(keys) == 0 {
		r.top = ml.Linear{}
		r.leaves = make([]leaf, 1)
	}
	return r, byRule
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
// serving plane trains under, since segment writers, drains, compactions,
// followers and the string prefix index all pass it.
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
// (key, position) sample, so the full passes start at the stage after it.
// The sample is routed into runs like the keys are (train_parallel.go).
func (r *RMI) fitSampledInner(xs, ys []float64) {
	size := r.cfg.StageSizes[0]
	mul := float64(size) / r.nf
	accs := make([]regAcc, size)
	for _, rn := range routeRuns(xs, r.top, mul, size, 1) {
		acc := &accs[rn.m]
		for i := rn.lo; i < rn.hi; i++ {
			acc.add(xs[i], ys[i], int32(ys[i]))
		}
	}
	r.stages = [][]linmod{fitModels(accs)}
}

// trainTop fits the stage-1 model on (key, position) pairs, subsampled per
// §3.6 with an even stride so the sample covers the whole CDF, and returns
// the sample. The stride ⌊n/SubsampleTop⌋ rounds down, so the sample holds
// between SubsampleTop and 2·SubsampleTop−1 points once n exceeds it.
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
		r.top = ml.FitMultivariate(xs, ys)
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
// count. The trainer feeds each leaf's accumulator in ascending key order
// whichever worker owns the leaf, so the floating-point sums come out
// bit-identical for every worker count.
type leafErrAcc struct {
	min, max   int
	sum, sumsq float64
	n          int
}

func newLeafErrAcc() leafErrAcc {
	return leafErrAcc{min: math.MaxInt32, max: math.MinInt32}
}

// addRun folds the errors of leaf model m over keys[lo:hi] into ev and the
// index-wide stats g. Each key's d is actual-minus-predicted, so the lookup
// window is [pred+minErr, pred+maxErr] — "the worst over- and
// under-prediction per last-stage model" (§3.4).
func (ev *leafErrAcc) addRun(keys []uint64, lo, hi int, m linmod, g *globalErr) {
	mn, mx, sum, sumsq := ev.min, ev.max, ev.sum, ev.sumsq
	gsum, gmax := g.sum, g.max
	for i := lo; i < hi; i++ {
		d := i - int(m.predict(float64(keys[i])))
		mn, mx = min(mn, d), max(mx, d)
		fd := float64(d)
		sum += fd
		sumsq += fd * fd
		if d < 0 {
			d = -d
		}
		gsum += uint64(d)
		gmax = max(gmax, d)
	}
	ev.min, ev.max, ev.sum, ev.sumsq = mn, mx, sum, sumsq
	ev.n += hi - lo
	g.sum, g.max = gsum, gmax
}

// setErrors stores the accumulated error window, standard error (§3.3's
// leaf metadata, kept in the encoding; no uint64 search reads it) and key
// count in lf.
func (lf *leaf) setErrors(ev *leafErrAcc) {
	lf.n = int32(ev.n)
	if ev.n == 0 {
		lf.minErr, lf.maxErr, lf.stdErr = -1, 1, 1
		return
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

// globalErr accumulates the index-wide error stats. The sum of |d| is kept
// as an integer, so it is exact and order-free: workers each fold their
// own leaves' keys and merge, and the mean comes out the same for every
// worker count.
type globalErr struct {
	sum uint64
	max int
}

func (r *RMI) setGlobalErr(g globalErr) {
	r.meanAbsErr = float64(g.sum) / float64(len(r.keys))
	r.maxAbsErr = g.max
}

// Predict runs only the model hierarchy (no search) and returns the
// estimated position plus the leaf's error window [lo, hi) — the quantity
// Figure 4's "Model (ns)" column times. An empty index predicts (0, 0, 0).
func (r *RMI) Predict(key uint64) (pos, lo, hi int) {
	if len(r.keys) == 0 {
		return 0, 0, 0
	}
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
// stored key >= key, or len(keys) if all are smaller. The compiled plan
// answers it (see plan.go); keys not in the stored set are resolved by
// search-window expansion (§3.4).
func (r *RMI) Lookup(key uint64) int { return r.plan.Lookup(key) }

// Contains reports whether key is stored.
func (r *RMI) Contains(key uint64) bool { return r.plan.Contains(key) }

// RangeScan returns the position range [start, end) of stored keys k with
// loKey <= k < hiKey.
func (r *RMI) RangeScan(loKey, hiKey uint64) (start, end int) { return r.plan.RangeScan(loKey, hiKey) }

// Keys returns the indexed array.
func (r *RMI) Keys() []uint64 { return r.keys }

// Plan returns the compiled read path: the flat inference plan built from
// this index at training (or decode) time, which Lookup, Contains and
// RangeScan run; see plan.go.
func (r *RMI) Plan() *Plan { return r.plan }

// NumLeaves returns the last-stage model count.
func (r *RMI) NumLeaves() int { return len(r.leaves) }

// MeanAbsErr returns the average absolute position error over stored keys.
func (r *RMI) MeanAbsErr() float64 { return r.meanAbsErr }

// MaxAbsErr returns the worst absolute position error over stored keys.
func (r *RMI) MaxAbsErr() int { return r.maxAbsErr }

// Config returns the training configuration.
func (r *RMI) Config() Config { return r.cfg }

// SizeBytes returns the index footprint: top model, inner stage models (16
// bytes each), and leaves (16-byte model + 12 bytes of error metadata),
// matching the paper's convention of excluding the data array.
func (r *RMI) SizeBytes() int {
	total := r.top.SizeBytes()
	for _, st := range r.stages {
		total += len(st) * 16
	}
	return total + len(r.leaves)*(16+12)
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
