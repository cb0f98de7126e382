// Package hist is the repository's shared log-bucketed latency histogram:
// O(1) memory, concurrency-safe, quantile-accurate to its ~12% bucket width.
// It grew up inside the load harness (internal/load) measuring client-side
// request latencies; it now also backs the server-side stage histograms the
// service exposes as real Prometheus histogram types on /metrics (queue
// wait, run duration, checkpoint writes, stream writes), so both sides of
// the wire bucket latencies identically. The package also carries the
// Prometheus bridge: Cumulative renders a histogram as cumulative bucket
// counts at fixed `le` bounds, and QuantileFromBuckets reconstructs a
// quantile from scraped bucket counts the way PromQL's histogram_quantile
// does — which is how isingload turns two /metrics scrapes into
// queue_wait_p95_ms threshold gates.
package hist

import (
	"math"
	"sync"
	"time"
)

// Internal bucket layout: geometric buckets from histMinUS microseconds
// growing by histGrowth per bucket, so every recorded latency lands in a
// bucket within ~6% of its true value (half the 12% bucket width) — the
// HDR-histogram trade k6's trend metrics make, without keeping every sample.
const (
	histMinUS  = 1.0  // lower edge of bucket 0, in microseconds
	histGrowth = 1.12 // relative bucket width
	histCount  = 192  // covers past 10 minutes
)

// Histogram is a concurrency-safe log-bucketed latency histogram.
// The zero value is not ready; use New.
type Histogram struct {
	mu     sync.Mutex
	counts [histCount]int64
	n      int64
	sum    time.Duration
	max    time.Duration
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// bucketIndex maps a latency to its bucket.
func bucketIndex(d time.Duration) int {
	us := float64(d) / float64(time.Microsecond)
	if us < histMinUS {
		return 0
	}
	i := int(math.Log(us/histMinUS) / math.Log(histGrowth))
	if i >= histCount {
		i = histCount - 1
	}
	return i
}

// bucketValue is the representative latency of a bucket: its log-space
// midpoint.
func bucketValue(i int) time.Duration {
	us := histMinUS * math.Pow(histGrowth, float64(i)+0.5)
	return time.Duration(us * float64(time.Microsecond))
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := bucketIndex(d)
	h.mu.Lock()
	h.counts[i]++
	h.n++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of recorded latencies.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Quantile returns the q-quantile (0 < q <= 1) of the recorded latencies,
// accurate to the bucket width; 0 when nothing was recorded. The true
// maximum is reported exactly.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketValue(i)
			if v > h.max {
				return h.max
			}
			return v
		}
	}
	return h.max
}

// LatencySummary is the JSON rendering of a histogram: the fields every
// load snapshot, /v1/stats stage summary and threshold check consumes, in
// milliseconds.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summary extracts the snapshot quantiles.
func (h *Histogram) Summary() LatencySummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := LatencySummary{Count: h.n, MaxMs: ms(h.max)}
	if h.n > 0 {
		s.MeanMs = ms(h.sum / time.Duration(h.n))
		s.P50Ms = ms(h.quantileLocked(0.50))
		s.P95Ms = ms(h.quantileLocked(0.95))
		s.P99Ms = ms(h.quantileLocked(0.99))
	}
	return s
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// DefaultBuckets are the Prometheus exposition upper bounds in seconds —
// half a millisecond to a minute, roughly 2.5x apart. Coarser than the
// internal geometric buckets on purpose: a /metrics scrape carries
// len(DefaultBuckets)+3 lines per histogram instead of 192, and the internal
// resolution still places every observation in the right exposed bucket.
var DefaultBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Cumulative renders the histogram against the given ascending upper bounds
// (seconds): counts[i] is the number of observations at most bounds[i] — the
// Prometheus `_bucket{le="..."}` series, to which the caller appends the
// implicit +Inf bucket equal to count. Classification uses each internal
// bucket's midpoint, so it shares the histogram's ~6% accuracy. sumSeconds
// is exact.
func (h *Histogram) Cumulative(bounds []float64) (counts []int64, count int64, sumSeconds float64) {
	counts = make([]int64, len(bounds))
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		v := bucketValue(i).Seconds()
		for k, b := range bounds {
			if v <= b {
				counts[k] += c
			}
		}
	}
	return counts, h.n, h.sum.Seconds()
}

// QuantileFromBuckets reconstructs the q-quantile (in seconds) of a scraped
// Prometheus histogram from its cumulative bucket counts, interpolating
// linearly within the landing bucket the way PromQL's histogram_quantile
// does. bounds are the ascending `le` values (a trailing +Inf is allowed),
// cumulative the matching counts, and total the `_count` value — pass count
// DELTAS of two scrapes to get the quantile of just that interval. Returns 0
// for an empty histogram; a quantile landing past the last finite bound
// clamps to that bound.
func QuantileFromBuckets(bounds, cumulative []float64, total, q float64) float64 {
	if total <= 0 || len(bounds) == 0 || len(bounds) != len(cumulative) {
		return 0
	}
	rank := q * total
	prevB, prevC := 0.0, 0.0
	lastFinite := 0.0
	for i, c := range cumulative {
		b := bounds[i]
		if c >= rank {
			if math.IsInf(b, 1) {
				return prevB
			}
			if c <= prevC {
				return b
			}
			return prevB + (b-prevB)*(rank-prevC)/(c-prevC)
		}
		if !math.IsInf(b, 1) {
			lastFinite = b
		}
		prevB, prevC = b, c
	}
	// The rank lives beyond every listed bound (observations in the implicit
	// +Inf bucket): clamp to the last finite bound.
	return lastFinite
}
