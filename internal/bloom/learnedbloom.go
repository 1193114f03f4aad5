package bloom

import (
	"math"
	"sort"
)

// Classifier is a model f(x) → [0,1] read as the probability that x is a
// key (§5.1.1). Implementations: GRU, LogisticNGram.
type Classifier interface {
	Predict(s string) float64
	SizeBytes() int
}

// LearnedBloom is the §5.1.1 learned Bloom filter: a probabilistic
// classifier with threshold τ plus an overflow Bloom filter over the
// classifier's false negatives, preserving the zero-false-negative
// guarantee (Figure 9(c)).
//
// τ is tuned on a held-out non-key set so that FPR_τ = p*/2, and the
// overflow filter is sized for FPR_B = p*/2, giving overall
// FPR_O = FPR_τ + (1-FPR_τ)·FPR_B <= p* (§5.1.1, crediting Mitzenmacher).
type LearnedBloom struct {
	model    Classifier
	tau      float64
	overflow *Filter
	numFN    int
	fprTau   float64 // measured on the validation non-keys
}

// NewLearnedBloom builds the filter: tunes τ for p*/2 on validNeg, collects
// the classifier's false negatives over keys, and sizes the overflow filter
// for p*/2 over them. The model must already be trained.
func NewLearnedBloom(model Classifier, keys, validNeg []string, targetFPR float64) *LearnedBloom {
	lb := &LearnedBloom{model: model}
	half := targetFPR / 2
	lb.tau, lb.fprTau = TuneTau(model, validNeg, half)
	var fns []string
	for _, k := range keys {
		if model.Predict(k) < lb.tau {
			fns = append(fns, k)
		}
	}
	lb.numFN = len(fns)
	if len(fns) > 0 {
		lb.overflow = New(len(fns), half)
		for _, k := range fns {
			lb.overflow.Add(k)
		}
	}
	return lb
}

// TuneTau returns the smallest threshold achieving FPR <= target on the
// held-out non-keys, plus the achieved FPR. Scores are sorted descending;
// τ is placed just above the ⌈target·|neg|⌉-th highest score.
func TuneTau(model Classifier, neg []string, target float64) (tau, achieved float64) {
	if len(neg) == 0 {
		return 0.5, 0
	}
	scores := make([]float64, len(neg))
	for i, s := range neg {
		scores[i] = model.Predict(s)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	allow := int(target * float64(len(neg)))
	if allow >= len(neg) {
		return 0, 1
	}
	// τ strictly above the (allow+1)-th highest score lets exactly `allow`
	// non-keys pass.
	tau = math.Nextafter(scores[allow], 2)
	fp := 0
	for _, s := range scores {
		if s >= tau {
			fp++
		}
	}
	return tau, float64(fp) / float64(len(neg))
}

// MayContain reports whether key may be in the set. False negatives are
// impossible: every key below τ was inserted into the overflow filter.
func (lb *LearnedBloom) MayContain(key string) bool {
	if lb.model.Predict(key) >= lb.tau {
		return true
	}
	if lb.overflow == nil {
		return false
	}
	return lb.overflow.MayContain(key)
}

// MeasureFPR returns the empirical false-positive rate over a non-key set
// (the paper reports this on the held-out test split).
func (lb *LearnedBloom) MeasureFPR(neg []string) float64 {
	if len(neg) == 0 {
		return 0
	}
	fp := 0
	for _, s := range neg {
		if lb.MayContain(s) {
			fp++
		}
	}
	return float64(fp) / float64(len(neg))
}

// SizeBytes returns model + overflow filter footprint, the Figure 10
// y-axis.
func (lb *LearnedBloom) SizeBytes() int {
	s := lb.model.SizeBytes()
	if lb.overflow != nil {
		s += lb.overflow.SizeBytes()
	}
	return s
}

// SizeBytesQuantized charges the model at float32 precision when the model
// supports it, matching the paper's model-size arithmetic.
func (lb *LearnedBloom) SizeBytesQuantized() int {
	s := lb.model.SizeBytes()
	if q, ok := lb.model.(interface{ SizeBytesQuantized() int }); ok {
		s = q.SizeBytesQuantized()
	}
	if lb.overflow != nil {
		s += lb.overflow.SizeBytes()
	}
	return s
}

// Tau returns the tuned threshold.
func (lb *LearnedBloom) Tau() float64 { return lb.tau }

// FNR returns the classifier's false-negative rate over the key set (the
// fraction of keys delegated to the overflow filter; §5.2 reports 55% at
// 0.5% FPR).
func (lb *LearnedBloom) FNR(numKeys int) float64 {
	if numKeys == 0 {
		return 0
	}
	return float64(lb.numFN) / float64(numKeys)
}
