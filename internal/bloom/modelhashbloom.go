package bloom

// ModelHashBloom is the §5.1.2 / Appendix E alternative: the classifier
// output is discretized into a bitmap probe, d(x) = ⌊f(x)·m⌋, acting as one
// extra hash function "trained to map most keys to the higher range of bit
// positions and non-keys to the lower range" — maximizing key/key and
// non-key/non-key collisions while minimizing key/non-key collisions.
//
// A query is positive only if its bitmap bit is set AND the backing Bloom
// filter (which holds every key) agrees, so the overall FPR is
// FPR_m × FPR_B and false negatives remain impossible. The backing filter
// is sized for FPR_B = p*/FPR_m (Appendix E).
type ModelHashBloom struct {
	model  Classifier
	bitmap []uint64
	m      int
	backup *Filter
	fprM   float64
}

// NewModelHashBloom builds the structure: sets the bitmap bit for every
// key, measures FPR_m on validNeg, then sizes the backup filter over all
// keys for p*/FPR_m.
func NewModelHashBloom(model Classifier, keys, validNeg []string, m int, targetFPR float64) *ModelHashBloom {
	if m < 64 {
		m = 64
	}
	mh := &ModelHashBloom{model: model, m: m, bitmap: make([]uint64, (m+63)/64)}
	for _, k := range keys {
		b := mh.bit(k)
		mh.bitmap[b>>6] |= 1 << (b & 63)
	}
	// FPR_m: fraction of held-out non-keys whose bit is set.
	fp := 0
	for _, s := range validNeg {
		b := mh.bit(s)
		if mh.bitmap[b>>6]&(1<<(b&63)) != 0 {
			fp++
		}
	}
	if len(validNeg) > 0 {
		mh.fprM = float64(fp) / float64(len(validNeg))
	} else {
		mh.fprM = 1
	}
	fprB := 1.0
	if mh.fprM > 0 {
		fprB = targetFPR / mh.fprM
	}
	if fprB >= 1 {
		// The bitmap alone already achieves the target; keep a minimal
		// backup so the no-false-negative path stays uniform.
		fprB = 0.5
	}
	mh.backup = New(len(keys), fprB)
	for _, k := range keys {
		mh.backup.Add(k)
	}
	return mh
}

func (mh *ModelHashBloom) bit(s string) uint64 {
	f := mh.model.Predict(s)
	if f < 0 {
		f = 0
	}
	if f >= 1 {
		f = 0.999999999
	}
	return uint64(f * float64(mh.m))
}

// MayContain reports whether key may be in the set.
func (mh *ModelHashBloom) MayContain(key string) bool {
	b := mh.bit(key)
	if mh.bitmap[b>>6]&(1<<(b&63)) == 0 {
		return false
	}
	return mh.backup.MayContain(key)
}

// MeasureFPR returns the empirical false-positive rate over a non-key set.
func (mh *ModelHashBloom) MeasureFPR(neg []string) float64 {
	if len(neg) == 0 {
		return 0
	}
	fp := 0
	for _, s := range neg {
		if mh.MayContain(s) {
			fp++
		}
	}
	return float64(fp) / float64(len(neg))
}

// FPRm returns the bitmap-alone false-positive rate measured at build time.
func (mh *ModelHashBloom) FPRm() float64 { return mh.fprM }

// SizeBytes returns model + bitmap + backup filter footprint.
func (mh *ModelHashBloom) SizeBytes() int {
	return mh.model.SizeBytes() + len(mh.bitmap)*8 + mh.backup.SizeBytes()
}

// SizeBytesQuantized charges the model at float32 precision when supported.
func (mh *ModelHashBloom) SizeBytesQuantized() int {
	s := mh.model.SizeBytes()
	if q, ok := mh.model.(interface{ SizeBytesQuantized() int }); ok {
		s = q.SizeBytesQuantized()
	}
	return s + len(mh.bitmap)*8 + mh.backup.SizeBytes()
}
