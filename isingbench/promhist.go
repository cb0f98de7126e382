package main

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tpuising/internal/hist"
)

// histBuckets reads one histogram family of a Prometheus exposition: its
// cumulative bucket counts keyed by upper bound, and its _count.
func histBuckets(text, name string) (map[float64]float64, float64, error) {
	buckets := map[float64]float64{}
	count := -1.0
	prefix := name + `_bucket{le="`
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		key, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case key == name+"_count":
			count = v
		case strings.HasPrefix(key, prefix):
			le, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(key, prefix), `"}`), 64)
			if err != nil {
				return nil, 0, fmt.Errorf("histogram %s: bad bound in %q", name, line)
			}
			buckets[le] = v
		}
	}
	if count < 0 || len(buckets) == 0 {
		return nil, 0, fmt.Errorf("histogram %s is missing from /metrics", name)
	}
	return buckets, count, nil
}

// histQuantileDelta is the q-quantile, in milliseconds, of the observations
// a histogram recorded between two scrapes: the bucket-count deltas fed to
// hist.QuantileFromBuckets. It is 0 when nothing was recorded in between.
func histQuantileDelta(before, after, name string, q float64) (float64, error) {
	b, bn, err := histBuckets(before, name)
	if err != nil {
		return 0, err
	}
	a, an, err := histBuckets(after, name)
	if err != nil {
		return 0, err
	}
	bounds := make([]float64, 0, len(a))
	for le := range a {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	cumulative := make([]float64, len(bounds))
	for i, le := range bounds {
		cumulative[i] = a[le] - b[le]
	}
	return 1e3 * hist.QuantileFromBuckets(bounds, cumulative, an-bn, q), nil
}
