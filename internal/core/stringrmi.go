package core

import (
	"math"

	"learnedindex/internal/ml"
	"learnedindex/internal/search"
)

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
	// above it with B-Trees (Figure 6 evaluates t=128 and t=64).
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

// sleaf is a string-RMI leaf: a linear model over the key's 8-byte prefix
// scalarization plus error metadata, optionally replaced by a B-Tree.
type sleaf struct {
	m      linmod
	minErr int32
	maxErr int32
	stdErr float32
	n      int32
	// offset-based assigned-keys B-Tree replacement; see leaf in rmi.go.
	btPos []int32
	btSep []string
}

// StringRMI is a 2-stage recursive model index over sorted string keys.
// The top stage is a feed-forward network over the ASCII feature vector
// (§3.5); leaves are linear models over a monotonic 8-byte prefix
// scalarization. Because the scalarization (and potentially the top model)
// is only approximately monotone, lookups verify window boundaries and
// expand when needed, so lower-bound semantics always hold.
//
// StringRMI keeps its own resident []string and is the model of the
// paper's Figure 6, nothing more: the serving stack's string read path is
// StringIndex, whose keys live in the codec dictionary's arena and whose
// tie-break inside a prefix-collision group is a search over contiguous
// suffix bytes — the same structure whether it was trained in memory,
// decoded from a segment file or replayed on a follower, none of which
// could carry a second copy of the keys for a model to search.
type StringRMI struct {
	keys      []string
	cfg       StringConfig
	top       *ml.NN
	leaves    []sleaf
	nf        float64
	numHybrid int
	maxAbsErr int
	meanAbs   float64
}

// PrefixScalar packs the first 8 bytes of s big-endian into a uint64 and
// converts to float64 — a cheap, order-preserving (up to 8-byte prefix
// ties) scalarization used by the leaf models.
func PrefixScalar(s string) float64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v <<= 8
		if i < len(s) {
			v |= uint64(s[i])
		}
	}
	return float64(v)
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
		r.leaves = make([]sleaf, 1)
		return r
	}
	r.trainTop()
	r.trainLeaves()
	return r
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
	p := r.top.PredictVecFast(vbuf)
	return scaleToIndex(p, r.nf, r.cfg.NumLeaves)
}

func (r *StringRMI) trainLeaves() {
	n := len(r.keys)
	size := r.cfg.NumLeaves
	accs := make([]regAcc, size)
	route := make([]int32, n)
	vbuf := make([]float64, r.cfg.MaxLen)
	for i, k := range r.keys {
		idx := r.leafIndex(k, vbuf)
		route[i] = int32(idx)
		accs[idx].add(PrefixScalar(k), float64(i), int32(i))
	}
	r.leaves = make([]sleaf, size)
	models := make([]linmod, size)
	for j := range models {
		models[j] = accs[j].fit()
	}
	repairEmpty(models, accs)
	for j := range r.leaves {
		r.leaves[j].m = models[j]
	}
	// Error pass.
	type e struct {
		min, max   int
		sum, sumsq float64
		n          int
	}
	errs := make([]e, size)
	for j := range errs {
		errs[j].min = 1 << 30
		errs[j].max = -(1 << 30)
	}
	var gsum float64
	gmax := 0
	for i, k := range r.keys {
		j := route[i]
		pred := int(r.leaves[j].m.predict(PrefixScalar(k)))
		// actual-minus-predicted; see leafErrAcc.addRun.
		d := i - pred
		ev := &errs[j]
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
		if d < 0 {
			d = -d
		}
		gsum += float64(d)
		if d > gmax {
			gmax = d
		}
	}
	for j := range r.leaves {
		lf := &r.leaves[j]
		ev := &errs[j]
		lf.n = int32(ev.n)
		if ev.n == 0 {
			lf.minErr, lf.maxErr, lf.stdErr = -1, 1, 1
			continue
		}
		lf.minErr, lf.maxErr = int32(ev.min), int32(ev.max)
		mean := ev.sum / float64(ev.n)
		v := ev.sumsq/float64(ev.n) - mean*mean
		if v < 0 {
			v = 0
		}
		lf.stdErr = sqrt32(v)
	}
	r.meanAbs = gsum / float64(n)
	r.maxAbsErr = gmax
	// Hybrid replacement (Figure 6's "Hybrid Index" rows): B-Trees over
	// the keys assigned to each bad leaf, per Algorithm 1.
	if r.cfg.HybridThreshold > 0 {
		flagged := make(map[int32]*sleaf)
		for j := range r.leaves {
			lf := &r.leaves[j]
			if lf.n == 0 {
				continue
			}
			worst := int(lf.maxErr)
			if -int(lf.minErr) > worst {
				worst = -int(lf.minErr)
			}
			if worst <= r.cfg.HybridThreshold {
				continue
			}
			flagged[int32(j)] = lf
			lf.btPos = make([]int32, 0, lf.n)
			r.numHybrid++
		}
		if len(flagged) > 0 {
			for i := range r.keys {
				if lf, ok := flagged[route[i]]; ok {
					lf.btPos = append(lf.btPos, int32(i))
				}
			}
			for _, lf := range flagged {
				step := r.cfg.HybridPageSize
				lf.btSep = make([]string, 0, len(lf.btPos)/step+1)
				for i := 0; i < len(lf.btPos); i += step {
					lf.btSep = append(lf.btSep, r.keys[lf.btPos[i]])
				}
			}
		}
	}
}

func sqrt32(v float64) float32 {
	if v <= 0 {
		return 0
	}
	return float32(math.Sqrt(v))
}

// Predict runs only the model hierarchy and returns the estimated position
// plus the error window.
func (r *StringRMI) Predict(key string) (pos, lo, hi int) {
	var vb [64]float64
	idx := r.leafIndex(key, vb[:r.cfg.MaxLen])
	lf := &r.leaves[idx]
	// Window anchored on the raw prediction; see RMI.Predict.
	pred := int(lf.m.predict(PrefixScalar(key)))
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
	lf := &r.leaves[idx]
	if lf.btPos != nil {
		if len(lf.btPos) == 0 {
			return search.StringBinary(r.keys, key, 0, n)
		}
		s := search.StringBinary(lf.btSep, key, 0, len(lf.btSep))
		lo := 0
		if s > 0 {
			lo = (s - 1) * r.cfg.HybridPageSize
		}
		hi := lo + r.cfg.HybridPageSize
		if hi > len(lf.btPos) {
			hi = len(lf.btPos)
		}
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
			return search.StringBinary(r.keys, key, 0, int(lf.btPos[0])+1)
		case p == len(lf.btPos):
			return search.StringBinary(r.keys, key, int(lf.btPos[p-1])+1, n)
		default:
			return search.StringBinary(r.keys, key, int(lf.btPos[p-1])+1, int(lf.btPos[p])+1)
		}
	}
	rawPred := int(lf.m.predict(PrefixScalar(key)))
	lo := rawPred + int(lf.minErr)
	hi := rawPred + int(lf.maxErr) + 1
	lo, hi = clampWindow(lo, hi, n)
	pred := clampInt(rawPred, 0, n-1)
	var pos int
	switch r.cfg.Search {
	case SearchBinary:
		return search.StringBoundedWithExpansion(r.keys, key, lo, hi)
	case SearchQuaternary:
		pos = search.StringBiasedQuaternary(r.keys, key, lo, hi, pred, int(lf.stdErr))
	default:
		pos = search.StringModelBiasedBinary(r.keys, key, lo, hi, pred)
	}
	if pos == lo && lo > 0 && r.keys[lo-1] >= key {
		return search.StringBoundedWithExpansion(r.keys, key, 0, lo+1)
	}
	if pos == hi && hi < n {
		return search.StringBoundedWithExpansion(r.keys, key, hi-1, n)
	}
	return pos
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
	for j := range r.leaves {
		// Hybrid B-Trees: 4-byte offsets per assigned key plus materialized
		// separators per page — no key copies.
		lf := &r.leaves[j]
		total += len(lf.btPos) * 4
		for _, sep := range lf.btSep {
			total += 16 + len(sep)
		}
	}
	return total
}
