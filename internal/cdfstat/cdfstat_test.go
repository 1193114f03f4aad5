package cdfstat

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"learnedindex/internal/data"
	"learnedindex/internal/ml"
)

func TestEmpiricalF(t *testing.T) {
	e := NewEmpirical([]uint64{10, 20, 30, 40})
	cases := []struct {
		x    uint64
		want float64
	}{{5, 0}, {10, 0.25}, {25, 0.5}, {40, 1}, {100, 1}}
	for _, c := range cases {
		if got := e.F(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("F(%d) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestKolmogorovSmirnovSameDistribution(t *testing.T) {
	a := NewEmpirical(data.Lognormal(20_000, 0, 2, 1_000_000_000, 1))
	b := NewEmpirical(data.Lognormal(20_000, 0, 2, 1_000_000_000, 99))
	if ks := KolmogorovSmirnov(a, b); ks > 0.05 {
		t.Fatalf("same-distribution KS %.4f too large; generator unstable across seeds", ks)
	}
}

func TestKolmogorovSmirnovDifferentDistributions(t *testing.T) {
	a := NewEmpirical(data.Lognormal(20_000, 0, 2, 1_000_000_000, 1))
	b := NewEmpirical(data.Uniform(20_000, 1_000_000_000, 1))
	if ks := KolmogorovSmirnov(a, b); ks < 0.2 {
		t.Fatalf("lognormal-vs-uniform KS %.4f too small", ks)
	}
}

func TestAppendixASqrtNScaling(t *testing.T) {
	// The Appendix A experiment: a constant-size model (here: the true
	// lognormal CDF fit on a fixed 1k sample) evaluated against growing
	// i.i.d. samples should see position error grow ~ N^0.5.
	rng := rand.New(rand.NewSource(1))
	var pts []ScalingPoint
	for _, n := range []int{2_000, 8_000, 32_000, 128_000} {
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.NormFloat64() // model CDF known analytically
		}
		sort.Float64s(sample)
		var sum float64
		for i, x := range sample {
			// Model: exact Gaussian CDF — constant size, zero estimation
			// error; all residual is sampling noise, Eq. (3).
			pred := 0.5 * (1 + math.Erf(x/math.Sqrt2)) * float64(n)
			sum += math.Abs(pred - float64(i))
		}
		pts = append(pts, ScalingPoint{N: n, MeanAbs: sum / float64(n)})
	}
	alpha, _ := FitPowerLaw(pts)
	if alpha < 0.3 || alpha > 0.7 {
		t.Fatalf("error scaling exponent %.3f, Appendix A predicts ~0.5", alpha)
	}
}

func TestFitPowerLawExact(t *testing.T) {
	pts := []ScalingPoint{{10, 2 * math.Sqrt(10)}, {100, 2 * math.Sqrt(100)}, {1000, 2 * math.Sqrt(1000)}}
	alpha, c := FitPowerLaw(pts)
	if math.Abs(alpha-0.5) > 1e-9 || math.Abs(c-2) > 1e-9 {
		t.Fatalf("alpha=%v c=%v, want 0.5, 2", alpha, c)
	}
}

func TestFitPowerLawDegenerate(t *testing.T) {
	if a, _ := FitPowerLaw(nil); a != 0 {
		t.Fatal("nil points")
	}
	if a, _ := FitPowerLaw([]ScalingPoint{{10, 5}}); a != 0 {
		t.Fatal("single point")
	}
}

func TestModelErrorsBeatConstantOnRealModel(t *testing.T) {
	// Sanity link to the ml package: a fitted line has lower measured error
	// than a constant predictor on near-linear data.
	keys := data.Maps(10_000, 1)
	xs := make([]float64, len(keys))
	ys := make([]float64, len(keys))
	for i, k := range keys {
		xs[i] = float64(k)
		ys[i] = float64(i)
	}
	lin := ml.FitLinear(xs, ys)
	var linErr, constErr float64
	for i, k := range keys {
		linErr += math.Abs(float64(int(lin.Predict(float64(k))) - i))
		constErr += math.Abs(float64(len(keys)/2 - i))
	}
	if linErr >= constErr {
		t.Fatal("linear model should beat a constant")
	}
}
