package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	m := FitLinear(xs, ys)
	if math.Abs(m.A-2) > 1e-9 || math.Abs(m.B-1) > 1e-9 {
		t.Fatalf("got a=%v b=%v, want 2, 1", m.A, m.B)
	}
}

func TestFitLinearLargeMagnitude(t *testing.T) {
	// Nanosecond timestamps: keys ~1e17, slope tiny. Centered fit must not
	// lose the slope to cancellation.
	base := 1.26e17
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = base + float64(i)*1e9
		ys[i] = float64(i)
	}
	m := FitLinear(xs, ys)
	for i := range xs {
		if d := math.Abs(m.Predict(xs[i]) - ys[i]); d > 0.01 {
			t.Fatalf("large-magnitude fit error %.4f at %d", d, i)
		}
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if m := FitLinear(nil, nil); m.Predict(5) != 0 {
		t.Fatal("empty fit should predict 0")
	}
	if m := FitLinear([]float64{3}, []float64{7}); m.Predict(100) != 7 {
		t.Fatal("single-point fit should be constant")
	}
	m := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3})
	if math.Abs(m.Predict(2)-2) > 1e-9 {
		t.Fatal("vertical data should fit the mean")
	}
}

func TestQuickLinearResidualOrthogonality(t *testing.T) {
	// Least squares property: residuals sum to ~0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = 3*xs[i] + rng.NormFloat64()*5
		}
		m := FitLinear(xs, ys)
		var sum float64
		for i := range xs {
			sum += ys[i] - m.Predict(xs[i])
		}
		return math.Abs(sum) < 1e-6*float64(n)*100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMultivariateFitsQuadratic(t *testing.T) {
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		x := float64(i)
		xs[i] = x
		ys[i] = 0.5*x*x + 3*x + 7
	}
	m := FitMultivariate(xs, ys)
	for _, x := range []float64{0, 100, 250, 499} {
		want := 0.5*x*x + 3*x + 7
		if d := math.Abs(m.Predict(x) - want); d > math.Max(1, want*1e-6) {
			t.Fatalf("quadratic fit off by %.4f at x=%v", d, x)
		}
	}
}

func TestMultivariateFitsLogCDF(t *testing.T) {
	// Lognormal-ish CDF: position ∝ log(key). Feature selection should
	// pick log and fit well.
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = math.Exp(float64(i) / 100)
		ys[i] = float64(i)
	}
	m := FitMultivariate(xs, ys)
	var rms float64
	for i := range xs {
		d := m.Predict(xs[i]) - ys[i]
		rms += d * d
	}
	rms = math.Sqrt(rms / float64(len(xs)))
	if rms > 10 { // 1% of the 1000-position range
		t.Fatalf("log-CDF fit RMS %.2f, want < 10", rms)
	}
}

func TestMultivariateSelectsFewFeaturesForLine(t *testing.T) {
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2*float64(i) + 1
	}
	m := FitMultivariate(xs, ys)
	if m.NumFeatures() == 0 {
		t.Fatal("no features selected for a perfect line")
	}
	if d := math.Abs(m.Predict(100) - 201); d > 0.5 {
		t.Fatalf("line fit off by %.4f", d)
	}
}

func TestMultivariateDegenerate(t *testing.T) {
	m := FitMultivariate(nil, nil)
	_ = m.Predict(5) // must not panic
	m = FitMultivariate([]float64{1, 1, 1}, []float64{2, 2, 2})
	if d := math.Abs(m.Predict(1) - 2); d > 1e-6 {
		t.Fatalf("constant fit off by %v", d)
	}
}

func TestNNZeroHiddenIsLinear(t *testing.T) {
	// A 0-hidden-layer NN must recover a line almost exactly.
	xs := make([]float64, 2000)
	ys := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 4*float64(i) + 100
	}
	cfg := DefaultNNConfig()
	cfg.Epochs = 30
	nn := TrainNN(xs, ys, cfg)
	var rms float64
	for i := range xs {
		d := nn.Predict(xs[i]) - ys[i]
		rms += d * d
	}
	rms = math.Sqrt(rms / float64(len(xs)))
	if rms > float64(len(xs))*0.02 {
		t.Fatalf("0-hidden NN RMS %.2f too high", rms)
	}
}

func TestNNLearnsNonlinearCDF(t *testing.T) {
	// A 1-hidden-layer net should beat the best line on a curved CDF.
	n := 4000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := float64(i) / float64(n)
		xs[i] = x
		ys[i] = math.Pow(x, 3) * float64(n) // cubic CDF
	}
	lin := FitLinear(xs, ys)
	cfg := DefaultNNConfig(16)
	cfg.Epochs = 40
	nn := TrainNN(xs, ys, cfg)
	rms := func(pred func(float64) float64) float64 {
		var s float64
		for i := range xs {
			d := pred(xs[i]) - ys[i]
			s += d * d
		}
		return math.Sqrt(s / float64(n))
	}
	if rms(nn.Predict) > 0.7*rms(lin.Predict) {
		t.Fatalf("NN (%.1f) did not beat linear (%.1f) on cubic CDF", rms(nn.Predict), rms(lin.Predict))
	}
}

func TestNNPredictMatchesPredictVec(t *testing.T) {
	// One inference loop for every width: Predict is PredictVec on a
	// one-element vector, bit for bit, including layers wider than the
	// stack scratch.
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = math.Sqrt(float64(i)) * 10
	}
	for _, hidden := range [][]int{{8}, {32, 32}, {64}} {
		nn := TrainNN(xs, ys, DefaultNNConfig(hidden...))
		for _, x := range []float64{0, 1, 250, 499, 1000} {
			if p, v := nn.Predict(x), nn.PredictVec([]float64{x}); p != v {
				t.Fatalf("hidden=%v: Predict (%v) != PredictVec (%v) at x=%v", hidden, p, v, x)
			}
		}
	}
}

func TestNNVectorInput(t *testing.T) {
	// Learn y = x0 + 2*x1 over vectors.
	rng := rand.New(rand.NewSource(3))
	n := 3000
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		ys[i] = xs[i][0] + 2*xs[i][1]
	}
	cfg := DefaultNNConfig()
	cfg.Epochs = 40
	nn := TrainNNVec(xs, ys, cfg)
	var rms float64
	for i := range xs {
		d := nn.PredictVec(xs[i]) - ys[i]
		rms += d * d
	}
	rms = math.Sqrt(rms / float64(n))
	if rms > 1.0 {
		t.Fatalf("vector linear fit RMS %.3f too high", rms)
	}
}

func TestNNSizeBytes(t *testing.T) {
	nn := TrainNN([]float64{1, 2, 3}, []float64{1, 2, 3}, DefaultNNConfig(16, 16))
	// params: 1*16+16 + 16*16+16 + 16*1+1 = 32 + 272 + 17 = 321
	if nn.NumParams() != 321 {
		t.Fatalf("NumParams = %d, want 321", nn.NumParams())
	}
	if nn.SizeBytes() <= nn.NumParams()*8 {
		t.Fatal("SizeBytes must include normalization constants")
	}
}

func TestNNDeterministicSeed(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{2, 4, 6, 8, 10, 12, 14, 16}
	a := TrainNN(xs, ys, DefaultNNConfig(8))
	b := TrainNN(xs, ys, DefaultNNConfig(8))
	for _, x := range xs {
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same seed must give identical models")
		}
	}
}

func TestGraphMatchesNative(t *testing.T) {
	xs := make([]float64, 300)
	ys := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i) * 2
	}
	nn := TrainNN(xs, ys, DefaultNNConfig(32, 32))
	g := NewGraphFromNN(nn)
	for _, x := range []float64{0, 10, 150, 299} {
		native := nn.Predict(x)
		interp := g.Run(x)
		if math.Abs(native-interp) > 1e-9 {
			t.Fatalf("graph(%v)=%v native=%v", x, interp, native)
		}
	}
	if g.NumNodes() < 10 {
		t.Fatalf("graph suspiciously small: %d nodes", g.NumNodes())
	}
}

func TestGRULearnsSeparableTask(t *testing.T) {
	// Keys contain "xx", non-keys don't: a trivially learnable motif.
	rng := rand.New(rand.NewSource(1))
	mk := func(motif bool) string {
		b := make([]byte, 12)
		for i := range b {
			b[i] = byte('a' + rng.Intn(4))
		}
		if motif {
			p := rng.Intn(10)
			b[p], b[p+1] = 'x', 'x'
		}
		return string(b)
	}
	var pos, neg []string
	for i := 0; i < 400; i++ {
		pos = append(pos, mk(true))
		neg = append(neg, mk(false))
	}
	cfg := GRUConfig{Width: 8, Embedding: 8, MaxLen: 16, Epochs: 6, LR: 5e-3, Seed: 1}
	g := NewGRU(cfg)
	g.Train(pos, neg, cfg)
	correct := 0
	for i := 0; i < 100; i++ {
		if g.Predict(mk(true)) > 0.5 {
			correct++
		}
		if g.Predict(mk(false)) < 0.5 {
			correct++
		}
	}
	if correct < 170 {
		t.Fatalf("GRU accuracy %d/200 on separable task", correct)
	}
}

func TestGRUSizeBytes(t *testing.T) {
	g := NewGRU(GRUConfig{Width: 16, Embedding: 32, MaxLen: 64})
	// emb 97*32=3104; 3 gates * 16*(48)=2304; 3 biases *16=48; wo 16; bo 1.
	want := 3104 + 3*768 + 48 + 16 + 1
	if g.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", g.NumParams(), want)
	}
	if g.SizeBytesQuantized() != want*4 {
		t.Fatal("quantized size wrong")
	}
	// The paper's W=16/E=32 model is 0.0259MB ≈ 27KB; ours should be the
	// same order of magnitude at float32.
	kb := float64(g.SizeBytesQuantized()) / 1024
	if kb < 10 || kb > 60 {
		t.Fatalf("W=16/E=32 model = %.1f KB, want ~20-30KB", kb)
	}
}

func TestLogisticSeparatesNGrams(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mk := func(phish bool) string {
		words := []string{"alpha", "beta", "gamma", "delta"}
		w := words[rng.Intn(len(words))]
		if phish {
			return "http://" + w + "-login-secure.xyz"
		}
		return "https://www." + w + ".com/page"
	}
	var pos, neg []string
	for i := 0; i < 500; i++ {
		pos = append(pos, mk(true))
		neg = append(neg, mk(false))
	}
	cfg := DefaultLogisticConfig()
	m := NewLogisticNGram(cfg)
	m.Train(pos, neg, cfg)
	correct := 0
	for i := 0; i < 100; i++ {
		if m.Predict(mk(true)) > 0.5 {
			correct++
		}
		if m.Predict(mk(false)) < 0.5 {
			correct++
		}
	}
	if correct < 190 {
		t.Fatalf("logistic accuracy %d/200", correct)
	}
}

func TestConstantModel(t *testing.T) {
	c := Constant{C: 42}
	if c.Predict(1) != 42 || c.Predict(1e18) != 42 || c.SizeBytes() != 8 {
		t.Fatal("constant model broken")
	}
}

func BenchmarkLinearPredict(b *testing.B) {
	m := Linear{A: 0.5, B: 3}
	var s float64
	for i := 0; i < b.N; i++ {
		s += m.Predict(float64(i))
	}
	sinkF = s
}

func BenchmarkNNPredict2x32(b *testing.B) {
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i)
	}
	nn := TrainNN(xs, ys, DefaultNNConfig(32, 32))
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += nn.Predict(float64(i % 1000))
	}
	sinkF = s
}

func BenchmarkGraphInterpreted2x32(b *testing.B) {
	xs := make([]float64, 1000)
	ys := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i)
	}
	nn := TrainNN(xs, ys, DefaultNNConfig(32, 32))
	g := NewGraphFromNN(nn)
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += g.Run(float64(i % 1000))
	}
	sinkF = s
}

var sinkF float64
