package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer, and the percentile is one or two outliers.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of samples by the
// nearest-rank rule, the number of samples strictly greater than it, and
// whether that number reaches minBeyond. samples need not be sorted.
func percentile(samples []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	v = s[rank-1]
	beyond = n - sort.Search(n, func(i int) bool { return s[i] > v })
	return v, beyond, beyond >= minBeyond
}

// median is the middle value (mean of the two middle values for an even
// count); zero for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
