package core

import (
	"unsafe"

	"learnedindex/internal/ml"
	"learnedindex/internal/obs"
	"learnedindex/internal/search"
)

// Plan is the RMI's read path: the model tree lowered into a flat
// inference plan, which answers every RMI.Lookup, Contains and RangeScan.
// Walking the tree as trained would pay Go interface dispatch on the top
// model and pointer-chase [][]linmod at every lookup; the paper's §3.2
// claim is that an RMI lookup is nothing but a handful of multiply-adds
// plus a tiny bounded search. compile recovers that cost model:
//
//   - Top stage devirtualized: monomorphic fast paths for TopLinear and
//     TopMultivariate (closure-free folded coefficients); only TopNN falls
//     back to the ml.Model interface.
//   - Flat contiguous coefficients: all inner stages share one []float64
//     of interleaved (a, b) pairs — one slice header, no [][] indirection
//     — and leaves are packed 32-byte records, one cache line per lookup.
//   - Routing scales folded: the ⌊M·f(x)/N⌋ stage transition's size/N
//     factor is multiplied into the feeding model's coefficients at
//     compile time, so routing is a single FMA plus clamp, zero divides.
//   - One last-mile search: every read, scalar or batched, runs a
//     branchless bisection over the leaf's error window — a fixed
//     log2(window) loads and no mispredict.
//
// Batches go through one kernel (LookupBatch, below): any set of plans, a
// per-probe plan selector, probes in any order. It runs the models for a
// 64-probe tile, then one lockstep branchless bisection across the tile —
// whichever key array each probe lives in — so the tile's cache misses
// overlap instead of queueing behind each other. The Plan methods
// LookupBatch and ContainsBatch are its one-plan case; the storage
// engine's rank kernel passes every in-fence segment's plan at once.
//
// A Plan is immutable and safe for concurrent use. Every read returns the
// true global lower bound (pinned against sort.Search by the equivalence
// oracle tests): folded routing can only shift which leaf serves a probe
// relative to Predict, never the answer — window expansion guarantees
// correctness from any prediction.
type Plan struct {
	keys []uint64
	n    int

	// Top stage. topKind selects the monomorphic evaluation; the folded
	// routing scale StageSizes[0]/N is already in the coefficients (linear,
	// multivariate) or applied via topScale (interface fallback).
	topKind  TopKind
	topA     float64 // TopLinear: route = clamp(int(topA·x + topB))
	topB     float64
	topBias  float64   // TopMultivariate: route = clamp(int(topBias + Σ topCoef·feat))
	topFeat  []int     // standard-menu feature indexes
	topCoef  []float64 // standardization and routing scale folded in
	top      ml.Model  // fallback (TopNN)
	topScale float64   // fallback routing multiplier StageSizes[0]/N
	topSize  int       // StageSizes[0]

	// Inner stages (all but the last): one flat slice of interleaved
	// (a, b) pairs with the next stage's routing scale folded in.
	// Stage s's model j lives at inner[innerOff[s]+2j : +2].
	inner      []float64
	innerOff   []int32
	innerClamp []int32 // model count of the stage being routed into

	// Leaves (last stage): one flat slice of packed 32-byte records, so a
	// lookup's entire leaf state — coefficients and error window — arrives
	// in a single cache line fetch. Coefficients are raw: leaf predictions
	// are positions, not routes, so nothing is folded.
	leaves []planLeaf

	// Model-health instrumentation (§3.3's error bounds, observed live):
	// deterministically sampled lookups record the model's actual
	// prediction error and the last-mile window width, so drift between
	// the trained bounds and served traffic is visible without retracing.
	// The histograms are the plan's only mutable state — atomic, so the
	// plan stays safe for concurrent use — and compile out under -tags
	// noobs.
	obsErr     *obs.Histogram // |true position − raw prediction|, sampled
	obsLen     *obs.Histogram // last-mile window width hi−lo, sampled
	trainedErr int            // max over leaves of the trained error bound
}

// planLeaf is the packed 32-byte leaf record of the compiled plan: model
// coefficients plus the §3.3 error bounds, two records per cache line.
type planLeaf struct {
	a, b           float64
	minErr, maxErr int32
	_              int32 // pads the record to 32 bytes
}

// compile lowers the trained (or decoded) model tree into a Plan. New and
// DecodeRMI call it once; Plan() returns the result.
func (r *RMI) compile() *Plan {
	p := &Plan{
		keys:    r.keys,
		n:       len(r.keys),
		topSize: len(r.leaves),
		obsErr:  obs.NewHistogram(),
		obsLen:  obs.NewHistogram(),
	}
	if len(r.cfg.StageSizes) > 0 {
		p.topSize = r.cfg.StageSizes[0]
	}
	if p.topSize < 1 {
		p.topSize = 1
	}

	// Routing scale of the stage the top model feeds.
	scale0 := 0.0
	if len(r.routeMul) > 0 {
		scale0 = r.routeMul[0]
	}
	p.topKind = TopNN // interface fallback unless a fast path matches
	p.top = r.top
	p.topScale = scale0
	switch m := r.top.(type) {
	case ml.Linear:
		p.topKind = TopLinear
		p.topA = m.A * scale0
		p.topB = m.B * scale0
	case ml.Constant:
		p.topKind = TopLinear
		p.topA = 0
		p.topB = m.C * scale0
	case *ml.Multivariate:
		bias, feat, coef := m.Folded()
		p.topKind = TopMultivariate
		p.topBias = bias * scale0
		p.topFeat = feat
		p.topCoef = coef
		for i := range p.topCoef {
			p.topCoef[i] *= scale0
		}
	}

	// Inner stages: flatten with the next stage's scale folded in.
	if ns := len(r.stages); ns > 0 {
		total := 0
		for _, st := range r.stages {
			total += len(st)
		}
		p.inner = make([]float64, 0, 2*total)
		p.innerOff = make([]int32, ns)
		p.innerClamp = make([]int32, ns)
		for s, st := range r.stages {
			mul := r.routeMul[s+1]
			p.innerOff[s] = int32(len(p.inner))
			p.innerClamp[s] = int32(r.cfg.StageSizes[s+1])
			for _, m := range st {
				p.inner = append(p.inner, m.a*mul, m.b*mul)
			}
		}
	}

	// Leaves: one packed record per leaf, raw coefficients. Packing is
	// element-wise and order-free, so large leaf arrays are chunked across
	// the training worker pool (a retrain's compile rides the same cores
	// as its fit passes).
	nl := len(r.leaves)
	p.leaves = make([]planLeaf, nl)
	parallelChunks(nl, TrainingWorkers(nl/compileLeafCost), func(_, jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			lf := &r.leaves[j]
			p.leaves[j] = planLeaf{
				a: lf.m.a, b: lf.m.b,
				minErr: lf.minErr, maxErr: lf.maxErr,
			}
		}
	})
	for j := range p.leaves {
		if b := int(p.leaves[j].maxErr); b > p.trainedErr {
			p.trainedErr = b
		}
		if b := -int(p.leaves[j].minErr); b > p.trainedErr {
			p.trainedErr = b
		}
	}
	return p
}

// compileLeafCost discounts a packed-leaf record against one training key
// when sizing compile's worker count: packing is ~16x cheaper per element
// than a fit-pass key, so only very large leaf arrays (~1M records at the
// trainer's 64k-key cutoff) are worth the goroutine fan-out.
const compileLeafCost = 16

// route runs the devirtualized model hierarchy for x and returns the leaf
// index: one FMA + clamp per stage, no divides, no interface calls on the
// monomorphic paths.
func (p *Plan) route(x float64) int {
	var idx int
	switch p.topKind {
	case TopLinear:
		idx = int(p.topA*x + p.topB)
	case TopMultivariate:
		y := p.topBias
		for i, fi := range p.topFeat {
			y += p.topCoef[i] * ml.StandardFeature(fi, x)
		}
		idx = int(y)
	default:
		idx = int(p.top.Predict(x) * p.topScale)
	}
	if idx < 0 {
		idx = 0
	} else if idx >= p.topSize {
		idx = p.topSize - 1
	}
	for s := range p.innerOff {
		base := p.innerOff[s] + int32(2*idx)
		nxt := int(p.inner[base]*x + p.inner[base+1])
		clamp := int(p.innerClamp[s])
		if nxt < 0 {
			nxt = 0
		} else if nxt >= clamp {
			nxt = clamp - 1
		}
		idx = nxt
	}
	return idx
}

// Lookup returns the lower-bound position of key — the index of the first
// stored key >= key, or Len() if all are smaller. The window is searched
// by the batch kernel's branchless bisection, with §3.4 expansion when the
// answer lies outside it.
func (p *Plan) Lookup(key uint64) int {
	if p.n == 0 {
		return 0
	}
	x := float64(key)
	rawPred, lo, hi := p.window(&p.leaves[p.route(x)], x)
	pos := search.BranchlessWithExpansion(p.keys, key, lo, hi)
	if obs.Enabled && obs.SampleKey(key) {
		p.observe(pos, rawPred, hi-lo)
	}
	return pos
}

// observe records one sampled lookup's model health: the observed
// prediction error against the raw (unclamped) prediction — directly
// comparable to the trained per-leaf bounds, which are relative to the
// same raw prediction — and the last-mile window width the search had to
// cover.
func (p *Plan) observe(pos, rawPred, window int) {
	err := pos - rawPred
	if err < 0 {
		err = -err
	}
	p.obsErr.Observe(uint64(err))
	p.obsLen.Observe(uint64(window))
}

// ObsModelErr snapshots the sampled observed-model-error histogram.
func (p *Plan) ObsModelErr() obs.HistSnapshot { return p.obsErr.Snapshot() }

// ObsSearchLen snapshots the sampled last-mile window-width histogram.
func (p *Plan) ObsSearchLen() obs.HistSnapshot { return p.obsLen.Snapshot() }

// TrainedErrBound returns the largest per-leaf trained error bound: the
// compile-time promise the observed error histogram is judged against.
func (p *Plan) TrainedErrBound() int { return p.trainedErr }

// Contains reports whether key is stored.
func (p *Plan) Contains(key uint64) bool {
	pos := p.Lookup(key)
	return pos < p.n && p.keys[pos] == key
}

// RangeScan returns the position range [start, end) of stored keys k with
// loKey <= k < hiKey: two compiled lower-bound lookups. This is the scan
// subsystem's entry API — a streaming range scan enters the key array at
// start instead of binary-searching for it, and a learned COUNT over
// [loKey, hiKey) is just end-start with zero iteration.
func (p *Plan) RangeScan(loKey, hiKey uint64) (start, end int) {
	return p.Lookup(loKey), p.Lookup(hiKey)
}

// batchTile is the width of the batch kernel's lockstep tile. On a key
// array larger than cache a lookup's price is its misses, and a dependent
// miss costs an order of magnitude more than an independent one, so the
// kernel's one job is memory-level parallelism: every stage runs for the
// whole tile before the next starts, and the tile is the caller's batch as
// it arrived — any probe order, any mix of plans — never a per-plan run
// cut out of it. 64 probes keep the tile's state (~3 KB) in L1 and put a
// serving batch in one tile.
const batchTile = 64

// planZero selects plans[0] for every probe of a tile: the one-plan case.
var planZero [batchTile]int32

// tileSel returns the plan selectors of probes [start, end).
func tileSel(sel []int32, start, end int) []int32 {
	if sel == nil {
		return planZero[:end-start]
	}
	return sel[start:end]
}

// LookupBatch is the batch kernel: out[i] = plans[sel[i]].Lookup(probes[i])
// for every probe, in probe order. len(sel) and len(out) must equal
// len(probes); a nil sel sends every probe to plans[0]. Probes need no
// order and no grouping by plan. Results are bit-identical to per-key
// Lookup: each resolves the true global lower bound, and so does the
// kernel's lockstep window search plus certificate/expansion epilogue.
func LookupBatch(plans []*Plan, sel []int32, probes []uint64, out []int) {
	for start := 0; start < len(probes); start += batchTile {
		end := min(start+batchTile, len(probes))
		lookupTile(plans, tileSel(sel, start, end), probes[start:end], out[start:end])
	}
}

// ContainsBatch is LookupBatch's membership form: out[i] reports whether
// plans[sel[i]] stores probes[i].
func ContainsBatch(plans []*Plan, sel []int32, probes []uint64, out []bool) {
	var pos [batchTile]int
	for start := 0; start < len(probes); start += batchTile {
		end := min(start+batchTile, len(probes))
		ts := tileSel(sel, start, end)
		lookupTile(plans, ts, probes[start:end], pos[:end-start])
		for i, q := range pos[:end-start] {
			p := plans[ts[i]]
			out[start+i] = q < p.n && p.keys[q] == probes[start+i]
		}
	}
}

// lookupTile runs the kernel for one tile of at most batchTile probes.
//
// Stage 1 runs each probe's model — route, packed leaf record, clamped
// error window — against its own plan, and leaves the probe two words of
// tile state: a cursor at its window's start in its own plan's key array,
// and the window's length. Stage 2 is one lockstep branchless bisection
// across the tile, whichever key array each probe lives in: every round
// issues one independent load per unresolved probe, straight off its
// cursor, and moves the cursor with a conditional move, so the tile keeps
// its misses in flight together where a per-key loop would serialize each
// probe's dependent chain (the software analogue of the memory-level
// parallelism FAST schedules explicitly, internal/fast). A round step has
// no slice header, no base and no bounds check to carry: the fewer µops
// each step costs, the more steps — and misses — the core holds in flight
// behind the oldest one.
//
// The cursor is an unsafe.Pointer, so the kernel keeps it inside its
// allocation: windows are clamped to end at n−1, never at n, and a cursor
// only ever advances to a point inside its window, so it never points past
// the array's last key (a past-the-end pointer may point at the next
// object, which the GC must not see). A probe above every key ends on
// n−1, and the epilogue's expansion answers it with n. The epilogue is per
// probe: certificate or §3.4 expansion (rare: absent probes whose window
// missed), and at most one model-health sample.
func lookupTile(plans []*Plan, sel []int32, probes []uint64, out []int) {
	g := len(probes)
	var (
		cur [batchTile]unsafe.Pointer // &keys[window start], then the search's cursor
		cnt [batchTile]int            // window length still unresolved
	)
	// off marks probes of empty plans, which the search does not answer,
	// and leaves their cnt at 0, so the rounds skip them.
	off := uint64(0)
	// The sampled slot is picked by key hash, so it is unbiased in key
	// order whatever order the probes arrive in.
	sample, sampleLeaf := -1, 0
	for i := 0; i < g; i++ {
		p := plans[sel[i]]
		if p.n == 0 {
			off |= 1 << i
			continue
		}
		x := float64(probes[i])
		idx := p.route(x)
		if obs.Enabled && obs.SampleKey(probes[i]) {
			sample, sampleLeaf = i, idx
		}
		_, lo, hi := p.window(&p.leaves[idx], x)
		lo, hi = min(lo, p.n-1), min(hi, p.n-1)
		cur[i], cnt[i] = unsafe.Add(unsafe.Pointer(unsafe.SliceData(p.keys)), lo*8), hi-lo
	}
	for left := 1; left != 0; {
		left = 0
		for i, n := range cnt[:g] {
			if n == 0 {
				continue
			}
			// Halving rounds up, so a probe's last round is its final
			// element test and its cursor ends on the window's lower bound
			// with no data-dependent branch left for the epilogue.
			half := (n + 1) >> 1
			// next, the advanced cursor, is at most the window's end, which
			// is at most n−1. Computing it before the compare and loading
			// through it is what compiles the select to a CMOV, with no
			// branch on key data; assigning unsafe.Add(c, half*8) inside
			// the if compiles to a branch.
			c, next := cur[i], unsafe.Add(cur[i], half*8)
			if *(*uint64)(unsafe.Add(next, -8)) < probes[i] {
				c = next
			}
			n -= half
			cur[i], cnt[i] = c, n
			left |= n
		}
	}
	for i := 0; i < g; i++ {
		if off&(1<<i) != 0 {
			out[i] = 0
			continue
		}
		p := plans[sel[i]]
		pos := int((uintptr(cur[i]) - uintptr(unsafe.Pointer(unsafe.SliceData(p.keys)))) / 8)
		out[i] = p.resolveBoundary(probes[i], pos)
	}
	// Model health: the bisection consumed the window, so the sampled
	// probe's is recomputed — one packed-record load on a sampled tile.
	if obs.Enabled && sample >= 0 {
		p := plans[sel[sample]]
		rawPred, lo, hi := p.window(&p.leaves[sampleLeaf], float64(probes[sample]))
		p.observe(out[sample], rawPred, hi-lo)
	}
}

// window evaluates a leaf model at x: the raw (unclamped) prediction and
// the §3.3 error window around it, clamped into the key array.
func (p *Plan) window(lf *planLeaf, x float64) (rawPred, lo, hi int) {
	rawPred = int(lf.a*x + lf.b)
	lo, hi = clampWindow(rawPred+int(lf.minErr), rawPred+int(lf.maxErr)+1, p.n)
	return rawPred, lo, hi
}

// resolveBoundary finishes one lockstep search: windows are per-leaf error
// bounds, so a result may be window-correct but globally wrong for probes
// the window missed. A result certified by its neighbors is returned as
// is; anything else re-searches with §3.4 expansion from the result
// outward.
func (p *Plan) resolveBoundary(key uint64, pos int) int {
	if pos > 0 && pos < p.n {
		// Strictly interior results are self-certifying: keys[pos-1] < key
		// <= keys[pos] proves the global lower bound.
		if p.keys[pos-1] < key && p.keys[pos] >= key {
			return pos
		}
	} else if pos == 0 {
		if p.keys[0] >= key {
			return 0
		}
	} else if pos == p.n {
		if p.keys[p.n-1] < key {
			return p.n
		}
	}
	return search.BranchlessWithExpansion(p.keys, key, pos, pos)
}

// LookupBatch answers Lookup for every probe (any order), writing the
// lower-bound positions into out (len(out) must equal len(probes)): the
// one-plan case of the batch kernel.
func (p *Plan) LookupBatch(probes []uint64, out []int) {
	LookupBatch([]*Plan{p}, nil, probes, out)
}

// ContainsBatch reports membership for every probe (any order), writing
// into out (len(out) must equal len(probes)).
func (p *Plan) ContainsBatch(probes []uint64, out []bool) {
	ContainsBatch([]*Plan{p}, nil, probes, out)
}

// Len returns the number of indexed keys.
func (p *Plan) Len() int { return p.n }

// Keys returns the sorted key array the plan serves. Shared, read-only.
func (p *Plan) Keys() []uint64 { return p.keys }

// SearchKind returns the search the plan runs: SearchBinary, the branchless
// bisection, for every Config.
func (p *Plan) SearchKind() SearchKind { return SearchBinary }
