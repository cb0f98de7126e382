// Package harness regenerates every table and figure of the paper's
// evaluation section. Each experiment is one exported function returning a
// *Table (rows of formatted cells plus notes), which cmd/benchtables and
// cmd/correctness render to text and CSV.
//
// The performance tables (1-7, HBM) and the system-comparison figures (8, 9)
// are produced by the calibrated performance model in internal/perf driven by
// the analytic work estimator, because the paper-scale lattices and pods
// cannot be materialised on a workstation. The correctness figures (4, 7),
// PrecisionComparison and EnsembleOnsager run real Markov chains at laptop
// scale and compare them with exact results.
//
// The package times nothing on the host: measured throughput comes from the
// isingbench module (see BENCHMARK.json) and the root `go test -bench`
// benchmarks.
package harness
