package main

import "sort"

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tailBeyond is how many samples must lie above a reported tail percentile.
const tailBeyond = 10

// tail returns the highest nearest-rank percentile of xs that still has at
// least tailBeyond samples above it, together with that percentile. With
// too few samples for any such percentile it returns the maximum and
// ok=false. xs is sorted in place.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	sort.Float64s(xs)
	if n <= tailBeyond {
		return xs[n-1], 100, false
	}
	rank := n - tailBeyond // 1-based rank of the reported sample
	return xs[rank-1], 100 * float64(rank) / float64(n), true
}

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN or infinite.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
