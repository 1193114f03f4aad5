// Package cdfstat provides empirical-CDF utilities and the Appendix A
// scaling analysis.
//
// Appendix A frames a learned range index as a model F(x) of the empirical
// CDF F̂_N(x) and shows the expected squared error between them is
// F(x)(1-F(x))/N, so the average *position* error (N·F vs N·F̂_N) grows as
// O(√N) — sub-linear, versus the linear growth of a constant-sized B-Tree's
// covered-keys-per-node. FitPowerLaw measures that rate from (N, error)
// points.
package cdfstat

import (
	"math"
	"sort"
)

// Empirical is an empirical CDF over a sorted key sample.
type Empirical struct {
	keys []uint64
}

// NewEmpirical builds the CDF from sorted unique keys.
func NewEmpirical(sorted []uint64) *Empirical { return &Empirical{keys: sorted} }

// F returns F̂(x) = |{k <= x}| / N.
func (e *Empirical) F(x uint64) float64 {
	if len(e.keys) == 0 {
		return 0
	}
	i := sort.Search(len(e.keys), func(i int) bool { return e.keys[i] > x })
	return float64(i) / float64(len(e.keys))
}

// KolmogorovSmirnov returns sup |F̂_a - F̂_b| over the union of both
// samples' keys — used by tests to check generator stability across seeds.
func KolmogorovSmirnov(a, b *Empirical) float64 {
	max := 0.0
	for _, k := range a.keys {
		d := math.Abs(a.F(k) - b.F(k))
		if d > max {
			max = d
		}
	}
	for _, k := range b.keys {
		d := math.Abs(a.F(k) - b.F(k))
		if d > max {
			max = d
		}
	}
	return max
}

// ScalingPoint is one (N, error) measurement of the Appendix A experiment.
type ScalingPoint struct {
	N       int
	MeanAbs float64
}

// FitPowerLaw fits error ≈ c·N^alpha by least squares in log-log space and
// returns alpha. Appendix A predicts alpha ≈ 0.5 for a constant-size model
// of i.i.d. data.
func FitPowerLaw(pts []ScalingPoint) (alpha, c float64) {
	if len(pts) < 2 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	n := 0
	for _, p := range pts {
		if p.N <= 0 || p.MeanAbs <= 0 {
			continue
		}
		x := math.Log(float64(p.N))
		y := math.Log(p.MeanAbs)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n < 2 {
		return 0, 0
	}
	fn := float64(n)
	den := sxx - sx*sx/fn
	if den == 0 {
		return 0, 0
	}
	alpha = (sxy - sx*sy/fn) / den
	c = math.Exp((sy - alpha*sx) / fn)
	return alpha, c
}
