// Package load is the k6-style load harness of the isingd REST service: it
// drives a daemon with concurrent job submitters and NDJSON stream
// subscribers, records per-request latency histograms (p50/p95/p99),
// error/queue-full/cache-hit rates and server-side counter deltas
// (sweeps/s, stream wakeups per sweep), checks them against declared
// thresholds, and can snapshot a run into a machine-readable JSON file.
//
// The pieces compose the way k6's metrics/thresholds pipeline does:
//
//   - Histogram / LatencySummary: lock-cheap log-bucketed latency
//     recording with quantile extraction.
//   - Threshold / Check: declared pass/fail gates over the flat metric
//     names a Report exports ("submit_p95_ms<250", "error_rate<0.01").
//   - Scenario: the virtual-user mix — submitters that POST specs and await
//     results (a configurable fraction canceling instead, which is what
//     surfaced the queue-slot-pinning bug), and subscribers that follow
//     /stream NDJSON (which is what surfaced the wake-storm).
//   - Snapshot: the JSON record of one run: the scenario Report, its
//     threshold Checks, and the runtime that produced them.
//
// cmd/isingload is the CLI over this package; internal/service is the
// system under test.
package load
