package main

import (
	"fmt"
	"sort"
)

// minJobs is the smallest per-run sample a latency quantile may come from:
// with 100 jobs at least ten lie beyond p90, the highest quantile reported.
const minJobs = 100

// quantile returns the q-quantile of sorted by linear interpolation between
// closest ranks (the "type 7" estimator of R and NumPy). sorted must be
// ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := q * float64(len(sorted)-1)
	lo := int(h)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// latencyQuantiles returns the exact p50 and p90 of raw per-job latencies,
// refusing samples too small to put ten jobs beyond p90.
func latencyQuantiles(samples []float64) (p50, p90 float64, err error) {
	if len(samples) < minJobs {
		return 0, 0, fmt.Errorf("only %d jobs completed in the timed window; at least %d are needed for a p90", len(samples), minJobs)
	}
	return median(samples), quantileOf(samples, 0.9), nil
}

// quantileOf sorts a copy of xs and returns its q-quantile (0 for none).
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// median is quantileOf(xs, 0.5).
func median(xs []float64) float64 { return quantileOf(xs, 0.5) }
