package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the middle two for an
// even count), 0 for no values.
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

// quartiles returns the first quartile, the median and the third
// quartile of xs, computed exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads this harness reports are the ones a reader recomputes from the
// raw values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: fewer, and the "percentile" is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). A
// tail percentile (p > 0.5) with fewer than minBeyond samples beyond it
// is refused with an error rather than reported.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	k := int(math.Ceil(p * float64(n))) // 1-based rank, at least 1 for p > 0
	if p > 0.5 && n-k < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d", p*100, minBeyond, n, n-k)
	}
	return sorted(xs)[k-1], nil
}
