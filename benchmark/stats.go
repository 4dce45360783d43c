package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the middle two for even counts),
// 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[min(max(rank(p, len(s)), 1), len(s))-1]
}

// rank is ceil(p% of n), computed so that 99.9% of 10000 is 9990, not 9991.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentiles are the tail percentiles a report may name, lowest first.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// tailPercentile returns the highest of tailPercentiles that still has at
// least ten of the n samples beyond it, or 0 when not even p90 does (n < 100):
// a timing is reported as its median plus this percentile, never a tail the
// sample cannot resolve.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		// Samples strictly beyond the nearest-rank p-th percentile.
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which the acceptance procedure uses for its spreads; it needs at
// least two samples and returns the median three times for fewer.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m, m
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // taken after the clamp, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// timing is how a set of timings is reported: the median plus the highest
// percentile with at least ten samples beyond it (none below 100 samples),
// with the sample count.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_percentile,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

func summarise(xs []float64) *timing {
	t := &timing{N: len(xs), P50: median(xs), TailP: tailPercentile(len(xs))}
	if t.TailP > 0 {
		t.Tail = percentile(xs, t.TailP)
	}
	return t
}
