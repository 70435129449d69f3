package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (the mean of the two middle values for
// an even count), or NaN for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tailPercentile returns the highest percentile of vs that has at least
// tailBeyond samples above it, as (percentile, value): with the samples
// sorted ascending, the value at index n-tailBeyond-1 has exactly
// tailBeyond samples after it and sits at percentile 100·(n-tailBeyond)/n.
// Below 2·tailBeyond samples that percentile would fall under the median,
// so the median is returned with percentile 50: the metric stays defined,
// and the sample count printed beside it says the tail is not resolved.
func tailPercentile(vs []float64) (pct, value float64) {
	n := len(vs)
	if n == 0 {
		return 50, math.NaN()
	}
	if n < 2*tailBeyond {
		return 50, median(vs)
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return 100 * float64(n-tailBeyond) / float64(n), s[n-tailBeyond-1]
}
