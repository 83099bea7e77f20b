package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, or NaN when it is empty.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func sortInt64(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// median returns the median of vs (mean of the middle pair for an even
// count), or NaN when it is empty. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is (max−min)/median over vs: how far the slices of one run
// disagree. Zero for fewer than two values or a zero median.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// quartileSpread is (Q3−Q1)/median over vs, the quartiles taken as
// Python's statistics.quantiles(vs, n=4) takes them (the exclusive
// method), which is how the driver judges run-to-run spread. Unlike
// spread it shrugs off one outlier at either end, which on a shared
// host one slice in five is. Zero for fewer than two values.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th of 3 cut points
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// medianNs is median over durations given in nanoseconds.
func medianNs(ns []int64) float64 {
	fs := make([]float64, len(ns))
	for i, v := range ns {
		fs[i] = float64(v)
	}
	return median(fs)
}
