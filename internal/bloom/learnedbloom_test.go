package bloom

import (
	"testing"

	"learnedindex/internal/data"
)

func trainedLogistic(t *testing.T, c *data.URLCorpus) *LogisticNGram {
	t.Helper()
	cfg := DefaultLogisticConfig()
	// Small hashed feature space: the learned-filter win requires the model
	// to be a small fraction of the filter budget (the paper's GRU is
	// 0.0259MB against 2MB filters). 2^9 dims = 2KB at float32.
	cfg.Bits = 9
	m := NewLogisticNGram(cfg)
	m.Train(c.Keys, c.TrainNeg, cfg)
	return m
}

func TestLearnedBloomNoFalseNegatives(t *testing.T) {
	c := data.URLs(3000, 6000, 1)
	m := trainedLogistic(t, c)
	lb := NewLearnedBloom(m, c.Keys, c.ValidNeg, 0.01)
	for _, k := range c.Keys {
		if !lb.MayContain(k) {
			t.Fatalf("false negative for key %q", k)
		}
	}
}

func TestLearnedBloomFPRNearTarget(t *testing.T) {
	c := data.URLs(3000, 10_000, 1)
	m := trainedLogistic(t, c)
	for _, target := range []float64{0.05, 0.01} {
		lb := NewLearnedBloom(m, c.Keys, c.ValidNeg, target)
		fpr := lb.MeasureFPR(c.TestNeg)
		// Validation and test are i.i.d. splits; allow sampling slack.
		if fpr > target*3 {
			t.Fatalf("target %.3f: test FPR %.4f too high", target, fpr)
		}
	}
}

func TestLearnedBloomSmallerThanStandard(t *testing.T) {
	// The §5.2 headline: the learned filter beats the standard filter's
	// footprint at the same FPR when the classifier separates the sets.
	c := data.URLs(5000, 10_000, 1)
	m := trainedLogistic(t, c)
	const target = 0.01
	lb := NewLearnedBloom(m, c.Keys, c.ValidNeg, target)
	std := New(len(c.Keys), target)
	if lb.SizeBytesQuantized() >= std.SizeBytes() {
		t.Fatalf("learned %.1fKB >= standard %.1fKB (FNR %.2f)",
			float64(lb.SizeBytesQuantized())/1024, float64(std.SizeBytes())/1024,
			lb.FNR(len(c.Keys)))
	}
	t.Logf("learned %.1fKB vs standard %.1fKB, FNR %.2f, τ=%.3f",
		float64(lb.SizeBytesQuantized())/1024, float64(std.SizeBytes())/1024,
		lb.FNR(len(c.Keys)), lb.Tau())
}

func TestTuneTau(t *testing.T) {
	// A perfectly calibrated model: scores equal index/len.
	neg := make([]string, 1000)
	scores := map[string]float64{}
	for i := range neg {
		neg[i] = string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('A'+i%52/2))
	}
	m := &fakeClassifier{scores: scores}
	for i, s := range neg {
		scores[s] = float64(i) / float64(len(neg))
	}
	tau, achieved := TuneTau(m, neg, 0.05)
	if achieved > 0.05 {
		t.Fatalf("achieved FPR %.4f > target", achieved)
	}
	fp := 0
	for _, s := range neg {
		if m.Predict(s) >= tau {
			fp++
		}
	}
	if float64(fp)/float64(len(neg)) > 0.05 {
		t.Fatal("tau does not enforce target on the tuning set")
	}
}

type fakeClassifier struct{ scores map[string]float64 }

func (f *fakeClassifier) Predict(s string) float64 { return f.scores[s] }
func (f *fakeClassifier) SizeBytes() int           { return 8 }

func TestLearnedBloomDegenerateModel(t *testing.T) {
	// A useless (constant) model: everything becomes a false negative, the
	// overflow filter carries the whole set, and correctness must hold.
	c := data.URLs(1000, 2000, 1)
	m := &fakeClassifier{scores: map[string]float64{}}
	lb := NewLearnedBloom(m, c.Keys, c.ValidNeg, 0.01)
	for _, k := range c.Keys {
		if !lb.MayContain(k) {
			t.Fatalf("false negative with degenerate model")
		}
	}
	if lb.FNR(len(c.Keys)) < 0.99 {
		t.Fatalf("constant model should delegate ~all keys, FNR=%.2f", lb.FNR(len(c.Keys)))
	}
}

func TestLearnedBloomGRU(t *testing.T) {
	if testing.Short() {
		t.Skip("GRU training is slow")
	}
	c := data.URLs(800, 1600, 1)
	cfg := GRUConfig{Width: 8, Embedding: 8, MaxLen: 48, Epochs: 2, LR: 5e-3, Seed: 1}
	g := NewGRU(cfg)
	g.Train(c.Keys, c.TrainNeg, cfg)
	lb := NewLearnedBloom(g, c.Keys, c.ValidNeg, 0.02)
	for _, k := range c.Keys {
		if !lb.MayContain(k) {
			t.Fatal("GRU learned bloom produced a false negative")
		}
	}
	if fpr := lb.MeasureFPR(c.TestNeg); fpr > 0.10 {
		t.Fatalf("GRU learned bloom FPR %.3f way above target", fpr)
	}
}

func TestModelHashBloomNoFalseNegatives(t *testing.T) {
	c := data.URLs(3000, 6000, 1)
	m := trainedLogistic(t, c)
	mh := NewModelHashBloom(m, c.Keys, c.ValidNeg, 1<<16, 0.01)
	for _, k := range c.Keys {
		if !mh.MayContain(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

func TestModelHashBloomFPR(t *testing.T) {
	c := data.URLs(3000, 10_000, 1)
	m := trainedLogistic(t, c)
	mh := NewModelHashBloom(m, c.Keys, c.ValidNeg, 1<<16, 0.01)
	if fpr := mh.MeasureFPR(c.TestNeg); fpr > 0.03 {
		t.Fatalf("model-hash FPR %.4f too high", fpr)
	}
	// FPRm of 0 is legitimate: a well-separating model can map every
	// held-out non-key to an unset bit.
	if mh.FPRm() < 0 || mh.FPRm() > 1 {
		t.Fatalf("FPRm %.4f out of range", mh.FPRm())
	}
}

func TestModelHashBloomBeatsClassifierVariantSometimes(t *testing.T) {
	// Appendix E reports the discretized variant can be smaller than the
	// §5.1.1 combination. We only assert both stay below/competitive with
	// the standard filter, as the ranking is dataset-dependent.
	c := data.URLs(5000, 10_000, 1)
	m := trainedLogistic(t, c)
	const target = 0.01
	std := New(len(c.Keys), target).SizeBytes()
	lb := NewLearnedBloom(m, c.Keys, c.ValidNeg, target).SizeBytesQuantized()
	mh := NewModelHashBloom(m, c.Keys, c.ValidNeg, 1<<17, target).SizeBytesQuantized()
	if lb >= std && mh >= std {
		t.Fatalf("neither learned variant (%d, %d) beat the standard filter (%d)", lb, mh, std)
	}
}
