package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail value resting on fewer is one or two outliers, not a
// percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank,
// and whether at least minBeyond samples lie strictly beyond its rank.
// xs need not be sorted; it is not modified.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s)-1-i >= minBeyond
}

// median is the midpoint of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// highestPercentile picks the highest of the candidate quantiles that
// still has minBeyond samples beyond it; ok is false when even the
// lowest candidate has too few.
func highestPercentile(xs []float64, candidates ...float64) (q, v float64, ok bool) {
	best := -1.0
	for _, c := range candidates {
		if val, good := percentile(xs, c); good && c > best {
			best, v = c, val
		}
	}
	return best, v, best >= 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
