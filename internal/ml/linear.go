// Package ml is the learning substrate of the reproduction — the stand-in
// for the paper's Tensorflow + LIF code-generation pipeline (§3.1). The
// paper trains models in Tensorflow but "never uses Tensorflow at
// inference"; it extracts weights into generated C++. We go one step
// further and both train and infer natively, which matches the paper's
// inference regime (simple models on the order of tens of nanoseconds).
//
// Implemented model families, mirroring §3.3 and §3.7:
//
//   - Linear: simple linear regression with a closed-form single-pass fit —
//     the paper's second-stage workhorse ("for the last mile ... linear
//     models can be learned optimally").
//   - Multivariate: multivariate linear regression over engineered features
//     (key, log key, key², √key) via normal equations (Figure 5's
//     "Multivariate Learned Index").
//   - NN: fully-connected ReLU networks (§3.3 uses 0–2 hidden layers of
//     width up to 32), trained by minibatch SGD with Adagrad and run by one
//     inference loop, PredictVec, for scalar and vector inputs of any width.
//   - GRU: a character-level gated recurrent unit classifier for the
//     learned Bloom filter (§5.2).
//   - LogisticNGram: a hashed n-gram logistic regression, a cheap
//     alternative existence-index classifier.
package ml

// Model predicts a scalar target from a scalar key. Predictions are in the
// same units as the training targets (for RMI stages: positions).
type Model interface {
	Predict(x float64) float64
	// SizeBytes is the model's parameter footprint, the quantity Figure 4's
	// "Size (MB)" column aggregates.
	SizeBytes() int
}

// Linear is y = a·x + b fit by least squares. The closed-form solution is
// computed in one pass with mean-centering for numerical stability on
// large-magnitude keys (nanosecond timestamps reach 1e17).
type Linear struct {
	A, B float64
}

// FitLinear fits a simple linear regression to (xs[i], ys[i]). With fewer
// than two distinct xs the model degenerates to a constant.
func FitLinear(xs, ys []float64) Linear {
	n := float64(len(xs))
	if len(xs) == 0 {
		return Linear{}
	}
	if len(xs) == 1 {
		return Linear{A: 0, B: ys[0]}
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return Linear{A: 0, B: my}
	}
	a := sxy / sxx
	return Linear{A: a, B: my - a*mx}
}

// Predict returns a·x + b.
func (l Linear) Predict(x float64) float64 { return l.A*x + l.B }

// SizeBytes returns the two-parameter footprint.
func (l Linear) SizeBytes() int { return 16 }

// Constant is a degenerate model predicting a fixed value, used to repair
// empty RMI leaves.
type Constant struct{ C float64 }

// Predict returns the constant.
func (c Constant) Predict(float64) float64 { return c.C }

// SizeBytes returns the single-parameter footprint.
func (c Constant) SizeBytes() int { return 8 }
