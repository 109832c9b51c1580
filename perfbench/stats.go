package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Quantile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// method: the smallest sample with at least q·n samples at or below it.
// A tail quantile needs enough samples to exist at all — the 99th
// percentile of 20 samples is just the maximum — so Quantile refuses
// when fewer than 1/(1-q) samples were taken (100 for p99, 2 for p50).
// xs need not be sorted; it is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %v outside (0,1)", q)
	}
	need := int(math.Ceil(1/(1-q) - 1e-9))
	if len(xs) < need {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", q*100, need, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// Median is the middle value of xs (mean of the two middle values for
// an even count); 0 for no samples. Used for the few-sample summaries
// (repeated set-ups, restarts) where nearest-rank would be too coarse.
func Median(xs []float64) float64 {
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

// Spread is the inter-quartile range of xs as a share of its median,
// with quartiles computed as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method) computes them — the steadiness measure the
// benchmark's bounds are stated in.
func Spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1.
		n := len(s)
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + float64(delta)*(s[j]-s[j-1])/4
	}
	med := Median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// ms and us convert durations to the float units metrics report in.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durMs converts a duration slice to float milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
