package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// percentileLadder lists the percentiles a timing may be reported at.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999}

// rankOf is the nearest-rank index of quantile q among n sorted samples.
func rankOf(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(k, n-1))
}

// tailPercentile returns the highest percentile of the ladder, no higher
// than limit, that has at least minBeyond of n samples beyond it. ok is
// false when not even the median qualifies.
func tailPercentile(n int, limit float64) (q float64, ok bool) {
	for _, p := range percentileLadder {
		if p > limit {
			break
		}
		if n-1-rankOf(n, p) >= minBeyond {
			q, ok = p, true
		}
	}
	return q, ok
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[rankOf(len(xs), q)]
}

// median returns the median of xs: the mean of the middle pair for an
// even count. It sorts xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// betterQuartile returns the quartile of xs nearest its best end: the
// lower quartile when lower is better, the upper one when higher is. It
// sorts xs.
func betterQuartile(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := len(xs) / 4
	if higherIsBetter {
		k = len(xs) - 1 - k
	}
	return xs[k]
}

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
