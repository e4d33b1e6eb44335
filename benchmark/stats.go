package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. Nearest rank reports a latency that was actually observed,
// which is what a tail figure should be.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// rankOf is the nearest rank of the p-th percentile among n samples,
// ceil(p*n/100), proof against 99.9 % of 10000 coming out as 9990.000000000001.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailPercentiles are the candidates for "the highest percentile the sample
// supports", in increasing order.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer and the figure is one or two outliers, not a tail.
const minBeyond = 10

// highestSupported returns the highest candidate percentile that still has
// at least minBeyond of the n samples beyond it, or 0 when even the median
// does not.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		beyond := n - rankOf(p, n)
		if beyond >= minBeyond {
			best = p
		}
	}
	return best
}

// betterHalf returns the mean of the better half of xs: the lower half when
// lower is better, the upper half when higher is (the middle value counts
// when the number is odd). Interference from the host only ever slows a
// slice or a repetition down, so the better half estimates the undisturbed
// system far more repeatably than a figure over all of them, while a change
// to the system itself moves every slice and so moves this mean with it.
func betterHalf(xs []float64, better string) float64 {
	s := sortedCopy(xs)
	if better == "higher" {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	return mean(s[:(len(s)+1)/2])
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
