package ml

import (
	"math"
)

// Multivariate is multivariate linear regression over engineered features
// of the key. §3.7.1 describes it: "We used simple automatic feature
// engineering for the top model by automatically creating and selecting
// features in the form of key, log(key), key², etc. Multivariate linear
// regression is an interesting alternative to NN as it is particularly well
// suited to fit nonlinear patterns with only a few operations."
type Multivariate struct {
	weights []float64 // one per feature, plus bias at index 0
	feats   []FeatureFunc
	// per-feature standardization so the normal equations stay conditioned
	mean, invStd []float64
	// featIdx records which entries of StandardFeatures() survived
	// selection (in selection order): closures cannot be encoded, but
	// indexes into the fixed standard menu can.
	featIdx []int
}

// FeatureFunc maps a key to one engineered feature.
type FeatureFunc func(x float64) float64

// StandardFeatures is the paper's feature menu: key, log(key), key², √key.
func StandardFeatures() []FeatureFunc {
	return []FeatureFunc{
		func(x float64) float64 { return x },
		func(x float64) float64 { return math.Log1p(math.Abs(x)) },
		func(x float64) float64 { return x * x },
		func(x float64) float64 { return math.Sqrt(math.Abs(x)) },
	}
}

// FitMultivariate fits ridge-regularized multivariate regression of ys on
// the standard features of xs, selecting (by greedy forward selection on
// training RMSE) the subset of features that helps — the paper's
// "automatically creating and selecting features".
func FitMultivariate(xs, ys []float64) *Multivariate {
	feats := StandardFeatures()
	// Greedy forward selection over the feature menu.
	selected := []int{}
	remaining := make([]int, len(feats))
	for i := range remaining {
		remaining[i] = i
	}
	var best *Multivariate
	bestErr := math.Inf(1)
	for len(remaining) > 0 {
		improved := false
		bestAdd, addIdx := -1, -1
		var bestAddModel *Multivariate
		for ri, fi := range remaining {
			trial := append(append([]int{}, selected...), fi)
			m := fitExact(xs, ys, pick(feats, trial))
			m.featIdx = trial
			e := m.rmse(xs, ys)
			if e < bestErr*(1-1e-6) { // require real improvement
				bestErr = e
				bestAdd, addIdx = fi, ri
				bestAddModel = m
				improved = true
			}
		}
		if !improved {
			break
		}
		selected = append(selected, bestAdd)
		remaining = append(remaining[:addIdx], remaining[addIdx+1:]...)
		best = bestAddModel
	}
	if best == nil {
		// No feature helped (constant target); fit bias-only.
		best = fitExact(xs, ys, nil)
	}
	return best
}

func pick(feats []FeatureFunc, idx []int) []FeatureFunc {
	out := make([]FeatureFunc, len(idx))
	for i, j := range idx {
		out[i] = feats[j]
	}
	return out
}

// fitExact solves the standardized ridge normal equations for the given
// feature set.
func fitExact(xs, ys []float64, feats []FeatureFunc) *Multivariate {
	n := len(xs)
	d := len(feats) + 1 // bias
	m := &Multivariate{feats: feats, mean: make([]float64, len(feats)), invStd: make([]float64, len(feats))}
	if n == 0 {
		m.weights = make([]float64, d)
		return m
	}
	// Standardize features.
	raw := make([][]float64, len(feats))
	for j, f := range feats {
		col := make([]float64, n)
		var mu float64
		for i := range xs {
			col[i] = f(xs[i])
			mu += col[i]
		}
		mu /= float64(n)
		var v float64
		for i := range col {
			dv := col[i] - mu
			v += dv * dv
		}
		std := math.Sqrt(v / float64(n))
		if std == 0 || math.IsNaN(std) {
			std = 1
		}
		m.mean[j] = mu
		m.invStd[j] = 1 / std
		for i := range col {
			col[i] = (col[i] - mu) * m.invStd[j]
		}
		raw[j] = col
	}
	// Normal equations: (XᵀX + λI) w = Xᵀy with X = [1 | standardized feats].
	const lambda = 1e-8
	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d+1)
	}
	phi := make([]float64, d)
	for i := 0; i < n; i++ {
		phi[0] = 1
		for j := range feats {
			phi[j+1] = raw[j][i]
		}
		for r := 0; r < d; r++ {
			for c := r; c < d; c++ {
				a[r][c] += phi[r] * phi[c]
			}
			a[r][d] += phi[r] * ys[i]
		}
	}
	for r := 0; r < d; r++ {
		a[r][r] += lambda * float64(n)
		for c := 0; c < r; c++ {
			a[r][c] = a[c][r]
		}
	}
	m.weights = solveGauss(a, d)
	return m
}

// solveGauss solves the d×d augmented system a·w = a[:,d] by Gaussian
// elimination with partial pivoting. Singular pivots fall back to zeroed
// coefficients.
func solveGauss(a [][]float64, d int) []float64 {
	for col := 0; col < d; col++ {
		// pivot
		p := col
		for r := col + 1; r < d; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		a[col], a[p] = a[p], a[col]
		if math.Abs(a[col][col]) < 1e-300 {
			continue
		}
		inv := 1 / a[col][col]
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c <= d; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	w := make([]float64, d)
	for i := 0; i < d; i++ {
		if math.Abs(a[i][i]) >= 1e-300 {
			w[i] = a[i][d] / a[i][i]
		}
	}
	return w
}

// Predict evaluates the regression at key x.
func (m *Multivariate) Predict(x float64) float64 {
	y := m.weights[0]
	for j, f := range m.feats {
		y += m.weights[j+1] * (f(x) - m.mean[j]) * m.invStd[j]
	}
	return y
}

// NumFeatures returns how many features survived selection.
func (m *Multivariate) NumFeatures() int { return len(m.feats) }

// StandardFeature evaluates entry fi of the standard feature menu at x —
// the closure-free form of StandardFeatures()[fi](x) used by compiled
// inference plans. Indexes outside the menu return 0.
func StandardFeature(fi int, x float64) float64 {
	switch fi {
	case 0:
		return x
	case 1:
		return math.Log1p(math.Abs(x))
	case 2:
		return x * x
	case 3:
		return math.Sqrt(math.Abs(x))
	}
	return 0
}

// Folded returns the model collapsed to y = bias + Σ coefs[i] ·
// StandardFeature(featIdx[i], x): the per-feature standardization (mean,
// invStd) is folded into the coefficients so a compiled caller pays one
// multiply-add per surviving feature and no closure calls.
func (m *Multivariate) Folded() (bias float64, featIdx []int, coefs []float64) {
	bias = m.weights[0]
	featIdx = append([]int(nil), m.featIdx...)
	coefs = make([]float64, len(m.featIdx))
	for j := range m.featIdx {
		c := m.weights[j+1] * m.invStd[j]
		coefs[j] = c
		bias -= c * m.mean[j]
	}
	return bias, featIdx, coefs
}

// SizeBytes returns the parameter footprint: weights plus per-feature
// standardization constants.
func (m *Multivariate) SizeBytes() int {
	return len(m.weights)*8 + len(m.mean)*16
}

func (m *Multivariate) rmse(xs, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for i := range xs {
		d := m.Predict(xs[i]) - ys[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
