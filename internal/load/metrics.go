package load

import "tpuising/internal/hist"

// The log-bucketed latency histogram was born here measuring client-side
// request latencies; it moved to internal/hist when the service grew
// server-side stage histograms so both ends of the wire bucket latencies
// identically. These aliases keep the load API (and the Snapshot schema,
// which embeds LatencySummary) unchanged.
type (
	// Histogram is a concurrency-safe log-bucketed latency histogram.
	Histogram = hist.Histogram
	// LatencySummary is the JSON quantile rendering of a histogram.
	LatencySummary = hist.LatencySummary
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return hist.New() }
