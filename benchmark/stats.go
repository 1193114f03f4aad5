package main

// Exact-sample statistics. Every latency the benchmark reports is computed
// from the full list of samples kept in memory, never from buckets.

import (
	"slices"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// quantileOf sorts a copy of xs and returns its q-quantile.
func quantileOf(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, q)
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// spread is the distance between the first and third quartile as a share of
// the median: the run-to-run noise measure the regression bounds are set
// against. Quartiles follow Python's statistics.quantiles(xs, n=4), the
// exclusive method, so the number agrees with the driver's.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	exclusive := func(k int) float64 { // k-th of 4 cut points
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	sp := (exclusive(3) - exclusive(1)) / med
	if sp < 0 {
		sp = -sp
	}
	return sp
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// durationsToMicros converts samples to microseconds.
func durationsToMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	return out
}
