package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles is the grid the tail rule picks from.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile is the percentile rule: the highest percentile on the
// grid that still has at least ten of n samples beyond it. It returns 0
// when even the median has fewer than ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones an external check
// computes from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
