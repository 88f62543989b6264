package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the ones computed from saved results.
// One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailQuantile is the highest of the usual tail percentiles that still
// has at least ten samples beyond it; below 20 samples only the median
// qualifies. p90 needs 100 samples, p75 needs 40.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}
