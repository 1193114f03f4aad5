package core

import (
	"fmt"

	"learnedindex/internal/keycodec"
	"learnedindex/internal/ml"
	"learnedindex/internal/search"
)

// SearchKind names a §3.4 last-mile search strategy. StringRMI runs the
// one its StringConfig selects; the uint64 RMI's compiled Plan runs one
// branchless bisection and reports SearchBinary.
type SearchKind int

const (
	// SearchModelBiased is the paper's default: binary search whose first
	// middle point is the model prediction, restricted to the stored
	// min/max error window.
	SearchModelBiased SearchKind = iota
	// SearchBinary is plain bisection over the error window, run as the
	// compiled plan's branchless search (search.BranchlessWithExpansion).
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

// StringConfig specifies a string RMI (§3.5, Figure 6).
type StringConfig struct {
	// MaxLen is the tokenization truncation length N: "we will truncate the
	// keys to length N before tokenization. For strings with length n < N,
	// we set x_i = 0 for i > n" (§3.5). Capped at 64.
	MaxLen int
	// Hidden are the top network's hidden widths (Figure 6 evaluates 1 and
	// 2 hidden layers); empty means a linear model over the vector.
	Hidden []int
	// NumLeaves is the second-stage size (Figure 6 uses 10,000).
	NumLeaves int
	// Search selects the last-mile strategy; Figure 6's best row ("Learned
	// QS") uses SearchQuaternary.
	Search SearchKind
	// HybridThreshold, when > 0, replaces leaves with max absolute error
	// above it with B-Trees (Algorithm 1 lines 11–14; Figure 6 evaluates
	// t=128 and t=64).
	HybridThreshold int
	// HybridPageSize is the replacement B-Trees' page size (default 32).
	HybridPageSize int
	// SubsampleTop caps top-model training points (default 50k; string NN
	// training is O(MaxLen) per point).
	SubsampleTop int
	Seed         int64
}

// DefaultStringConfig mirrors Figure 6's learned-index rows.
func DefaultStringConfig(numLeaves int, hidden ...int) StringConfig {
	return StringConfig{MaxLen: 16, Hidden: hidden, NumLeaves: numLeaves, Search: SearchModelBiased, Seed: 1}
}

// StringRMI is a 2-stage recursive model index over sorted string keys.
// The top stage is a feed-forward network over the ASCII feature vector
// (§3.5); the leaves are the RMI's leaf stage — linear models over the
// keys' 8-byte big-endian prefixes (keycodec.Prefix), fit by runs with the
// uint64 RMI's trainer — plus, under a HybridThreshold, the paper's hybrid
// B-Tree leaves, which only this index builds. Because the prefix (and
// potentially the top model) is only approximately monotone, lookups verify
// window boundaries and expand when needed, so lower-bound semantics always
// hold.
//
// StringRMI keeps its own resident []string and is the model of the
// paper's Figure 6, nothing more: the serving stack's string read path is
// StringIndex, whose keys live in the codec dictionary's arena and whose
// tie-break inside a prefix-collision group is a search over contiguous
// suffix bytes — the same structure whether it was trained in memory,
// decoded from a segment file or replayed on a follower, none of which
// could carry a second copy of the keys for a model to search.
type StringRMI struct {
	keys   []string
	cfg    StringConfig
	top    *ml.NN
	leaves []leaf
	// Hybrid B-Tree leaves (nil without a HybridThreshold; entry j nil
	// unless leaf j was replaced). A B-Tree is built over the keys
	// *assigned* to its leaf (Algorithm 1 trains it "on
	// tmp_records[M][j]") and, like the paper's offset-based in-memory
	// trees (§6), stores no key copies: btPos[j] holds the assigned keys'
	// positions, and btSep[j] is a sparse separator level (every
	// HybridPageSize-th assigned key) for the tree descent; the final page
	// search reads the main array through the offsets.
	btPos     [][]int32
	btSep     [][]string
	nf        float64
	numHybrid int
	maxAbsErr int
	meanAbs   float64
}

// Vectorize writes the §3.5 tokenization of s into dst: dst[i] is the ASCII
// decimal value of s[i], zero beyond len(s).
func Vectorize(s string, dst []float64) {
	n := len(s)
	for i := range dst {
		if i < n {
			dst[i] = float64(s[i])
		} else {
			dst[i] = 0
		}
	}
}

// NewString trains a StringRMI over sorted unique keys.
func NewString(keys []string, cfg StringConfig) *StringRMI {
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 16
	}
	if cfg.MaxLen > 64 {
		cfg.MaxLen = 64
	}
	if cfg.NumLeaves < 1 {
		cfg.NumLeaves = leafCount(len(keys))
	}
	if cfg.HybridPageSize <= 0 {
		cfg.HybridPageSize = 32
	}
	if cfg.SubsampleTop <= 0 {
		cfg.SubsampleTop = 50_000
	}
	r := &StringRMI{keys: keys, cfg: cfg, nf: float64(len(keys))}
	if len(keys) == 0 {
		r.leaves = make([]leaf, 1)
		return r
	}
	r.trainTop()
	// The leaves are the RMI's leaf stage: route every key through the top
	// network on the worker pool, then fit the runs with the RMI's leaf
	// trainer over the keys' prefixes, which are training scratch only (a
	// lookup computes its probe's prefix).
	workers := TrainingWorkers(len(keys))
	runs := routeEach(len(keys), workers, func() func(int) int {
		vbuf := make([]float64, cfg.MaxLen)
		return func(i int) int { return r.leafIndex(keys[i], vbuf) }
	})
	prefixes := make([]uint64, len(keys))
	for i, k := range keys {
		prefixes[i] = keycodec.Prefix(k)
	}
	g := groupRuns(runs, cfg.NumLeaves)
	leaves, ge := fitLeaves(prefixes, g, workers)
	r.leaves = leaves
	r.meanAbs = float64(ge.sum) / r.nf
	r.maxAbsErr = ge.max
	if cfg.HybridThreshold > 0 {
		r.buildHybrid(g)
	}
	return r
}

// buildHybrid swaps every leaf whose max absolute error exceeds the
// threshold for a B-Tree over its runs g.of(j) (Algorithm 1 lines 11–14:
// "index[M][j] = new B-Tree trained on tmp_records[M][j]"): "hybrid
// indexes allow us to bound the worst case performance of learned indexes
// to the performance of B-Trees" (§3.3).
func (r *StringRMI) buildHybrid(g modelRuns) {
	ps := r.cfg.HybridPageSize
	r.btPos = make([][]int32, len(r.leaves))
	r.btSep = make([][]string, len(r.leaves))
	for j := range r.leaves {
		lf := &r.leaves[j]
		if lf.n == 0 || max(int(lf.maxErr), -int(lf.minErr)) <= r.cfg.HybridThreshold {
			continue
		}
		pos := make([]int32, 0, lf.n)
		for _, rn := range g.of(j) {
			for i := rn.lo; i < rn.hi; i++ {
				pos = append(pos, i)
			}
		}
		sep := make([]string, 0, len(pos)/ps+1)
		for i := 0; i < len(pos); i += ps {
			sep = append(sep, r.keys[pos[i]])
		}
		r.btPos[j], r.btSep[j] = pos, sep
		r.numHybrid++
	}
}

func (r *StringRMI) trainTop() {
	n := len(r.keys)
	stride := 1
	if n > r.cfg.SubsampleTop {
		stride = n / r.cfg.SubsampleTop
	}
	m := (n + stride - 1) / stride
	xs := make([][]float64, 0, m)
	ys := make([]float64, 0, m)
	for i := 0; i < n; i += stride {
		v := make([]float64, r.cfg.MaxLen)
		Vectorize(r.keys[i], v)
		xs = append(xs, v)
		ys = append(ys, float64(i))
	}
	nncfg := ml.DefaultNNConfig(r.cfg.Hidden...)
	nncfg.Seed = r.cfg.Seed
	nncfg.Epochs = 6
	r.top = ml.TrainNNVec(xs, ys, nncfg)
}

func (r *StringRMI) leafIndex(key string, vbuf []float64) int {
	Vectorize(key, vbuf)
	return scaleToIndex(r.top.PredictVec(vbuf), r.nf, r.cfg.NumLeaves)
}

// Predict runs only the model hierarchy and returns the estimated position
// plus the error window.
func (r *StringRMI) Predict(key string) (pos, lo, hi int) {
	if len(r.keys) == 0 {
		return 0, 0, 0
	}
	var vb [64]float64
	idx := r.leafIndex(key, vb[:r.cfg.MaxLen])
	lf := &r.leaves[idx]
	// Window anchored on the raw prediction; see RMI.Predict.
	pred := int(lf.m.predict(float64(keycodec.Prefix(key))))
	lo = pred + int(lf.minErr)
	hi = pred + int(lf.maxErr) + 1
	lo, hi = clampWindow(lo, hi, len(r.keys))
	pos = clampInt(pred, 0, len(r.keys)-1)
	return pos, lo, hi
}

// Lookup returns the lower-bound position of key.
func (r *StringRMI) Lookup(key string) int {
	n := len(r.keys)
	if n == 0 {
		return 0
	}
	var vb [64]float64
	idx := r.leafIndex(key, vb[:r.cfg.MaxLen])
	if r.btPos != nil && r.btPos[idx] != nil {
		return r.hybridLookup(idx, key)
	}
	lf := &r.leaves[idx]
	rawPred := int(lf.m.predict(float64(keycodec.Prefix(key))))
	lo := rawPred + int(lf.minErr)
	hi := rawPred + int(lf.maxErr) + 1
	lo, hi = clampWindow(lo, hi, n)
	pred := clampInt(rawPred, 0, n-1)
	switch r.cfg.Search {
	case SearchBinary:
		return search.BranchlessWithExpansion(r.keys, key, lo, hi)
	case SearchQuaternary:
		pos := search.BiasedQuaternary(r.keys, key, lo, hi, pred, int(lf.stdErr))
		return search.VerifyOrExpand(r.keys, key, pos, lo, hi)
	case SearchExponential:
		return search.Exponential(r.keys, key, n, pred)
	default:
		pos := search.ModelBiasedBinary(r.keys, key, lo, hi, pred)
		return search.VerifyOrExpand(r.keys, key, pos, lo, hi)
	}
}

// hybridLookup answers a lookup routed to B-Tree leaf j: descend its
// sparse separator level, binary-search the page of assigned offsets, and
// resolve the (usually tiny) gap between assigned positions against the
// main array. Covers keys never assigned to the leaf as well. A B-Tree
// leaf always has keys, so the offsets are never empty.
func (r *StringRMI) hybridLookup(j int, key string) int {
	keys, pos, ps := r.keys, r.btPos[j], r.cfg.HybridPageSize
	// Separator descent: last separator <= key marks the page.
	s := search.Binary(r.btSep[j], key, 0, len(r.btSep[j])) // first sep >= key
	lo := 0
	if s > 0 {
		lo = (s - 1) * ps
	}
	hi := min(lo+ps, len(pos))
	// Page search over the offsets (reading keys through them).
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[pos[mid]] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	switch p := lo; {
	case p == 0:
		// key <= first assigned key: bound is in [0, pos[0]].
		return search.Binary(keys, key, 0, int(pos[0])+1)
	case p == len(pos):
		// all assigned keys are smaller: bound is after the last one.
		return search.Binary(keys, key, int(pos[p-1])+1, len(keys))
	default:
		// assigned[p-1] < key <= assigned[p]: the global bound lies in
		// (pos[p-1], pos[p]].
		return search.Binary(keys, key, int(pos[p-1])+1, int(pos[p])+1)
	}
}

// Contains reports whether key is stored.
func (r *StringRMI) Contains(key string) bool {
	p := r.Lookup(key)
	return p < len(r.keys) && r.keys[p] == key
}

// NumHybrid returns how many leaves were replaced by B-Trees.
func (r *StringRMI) NumHybrid() int { return r.numHybrid }

// MaxAbsErr returns the worst absolute position error over stored keys.
func (r *StringRMI) MaxAbsErr() int { return r.maxAbsErr }

// MeanAbsErr returns the mean absolute position error over stored keys.
func (r *StringRMI) MeanAbsErr() float64 { return r.meanAbs }

// SizeBytes returns the index footprint (top network + leaves + hybrid
// B-Trees), excluding the key array.
func (r *StringRMI) SizeBytes() int {
	total := 0
	if r.top != nil {
		total += r.top.SizeBytes()
	}
	total += len(r.leaves) * (16 + 12)
	// Hybrid B-Trees: 4-byte offsets per assigned key plus materialized
	// separators per page — no key copies.
	for _, pos := range r.btPos {
		total += len(pos) * 4
	}
	for _, seps := range r.btSep {
		for _, sep := range seps {
			total += 16 + len(sep)
		}
	}
	return total
}
