//go:build linux

package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func flatten(vs [][]float64) []float64 {
	var out []float64
	for _, v := range vs {
		out = append(out, v...)
	}
	return out
}

// median is the middle value, the mean of the two middle values when the
// count is even.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowQuantiles takes the q-quantile of every window that has samples.
func windowQuantiles(windows [][]float64, q float64) []float64 {
	var per []float64
	for _, w := range windows {
		if len(w) > 0 {
			per = append(per, percentile(sortedCopy(w), q))
		}
	}
	return per
}

// fastSixteenth reduces a run's per-window values to one number: the
// value the fastest sixteenth of the windows beat (the 93.75th percentile
// of a rate, the 6.25th of a time or a cost, interpolated like quartiles;
// with some thirty windows that is about the second fastest). The host
// this runs on changes speed by the minute, by up to a third, with what
// its other guests do, and such a guest only ever slows a window down: the
// fast end of a run stays put as long as two or three of its windows were
// left alone, where a mean or a median moves with every disturbed one.
func fastSixteenth(v []float64, higherIsFaster bool) float64 {
	if higherIsFaster {
		return quantile(v, 15, 16)
	}
	return quantile(v, 1, 16)
}

// quantile returns the k-th of the n-1 cut points that divide v into n
// groups, the way Python's statistics.quantiles(v, n=n)[k-1] does
// (exclusive method), which is what the acceptance driver computes its
// spreads with.
func quantile(v []float64, k, n int) float64 {
	s := sortedCopy(v)
	m := len(s)
	if m == 0 {
		return 0
	}
	if m == 1 {
		return s[0]
	}
	pos := float64(k) * float64(m+1) / float64(n)
	j := min(max(int(pos), 1), m-1)
	d := pos - float64(j)
	return s[j-1] + d*(s[j]-s[j-1])
}

func quartiles(v []float64) (q1, q2, q3 float64) {
	return quantile(v, 1, 4), quantile(v, 2, 4), quantile(v, 3, 4)
}
