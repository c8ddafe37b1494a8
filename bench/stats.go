package main

import (
	"math"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for an
// even count), 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(pct / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailLadder is the percentiles a tail may be reported at, highest first,
// each with the share of samples beyond it as 1/beyond.
var tailLadder = []struct {
	pct    float64
	beyond int
}{{99.99, 10000}, {99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}}

// tailPercentile picks the highest percentile of tailLadder that still has
// at least ten of the n samples beyond it; a tail estimated from fewer is
// one slow request, not a distribution. With fewer than 40 samples there is
// no such percentile and it returns 50.
func tailPercentile(n int) float64 {
	for _, t := range tailLadder {
		if n >= 10*t.beyond {
			return t.pct
		}
	}
	return 50
}

// quartiles are the three cut points Python's statistics.quantiles(xs, n=4)
// returns (the default "exclusive" method), which is what the acceptance
// rule for this benchmark is stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}
