// Package tpuising's repository-level benchmarks regenerate every table and
// figure of the paper's evaluation section (via the internal/harness package)
// and time one real sweep loop per host engine.
//
// The custom metrics reported via b.ReportMetric carry the paper's units:
// model_flips/ns for modelled TPU throughput, host_flips/ns for the actual
// simulator throughput on the machine running the benchmark, and model_ms for
// modelled step times.
package tpuising

import (
	"strconv"
	"testing"

	"tpuising/internal/harness"
	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/tpu"
	"tpuising/internal/perf"
	"tpuising/internal/sweep"
	"tpuising/internal/tempering"
	"tpuising/internal/tensor"
)

// reportCell parses a numeric table cell and attaches it to the benchmark as
// a custom metric.
func reportCell(b *testing.B, tab *harness.Table, row, col int, metric string) {
	b.Helper()
	v, err := strconv.ParseFloat(tab.Cell(row, col), 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) of %s is not numeric: %v", row, col, tab.ID, err)
	}
	b.ReportMetric(v, metric)
}

// --- Table and figure regeneration benchmarks -------------------------------

// BenchmarkTable1SingleCore regenerates Table 1 (single-core throughput and
// energy vs lattice size) and reports the saturated single-core throughput.
func BenchmarkTable1SingleCore(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table1(m)
	}
	reportCell(b, tab, 5, 1, "model_flips/ns")
	reportCell(b, tab, 5, 2, "model_nJ/flip")
}

// BenchmarkTable2WeakScaling regenerates Table 2 (weak scaling to 512 cores)
// and reports the 512-core throughput and step time.
func BenchmarkTable2WeakScaling(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table2(m)
	}
	reportCell(b, tab, 4, 3, "model_flips/ns")
	reportCell(b, tab, 4, 2, "model_step_ms")
}

// BenchmarkTable3Breakdown regenerates Table 3 (step-time breakdown) and
// reports the MXU share at 512 cores.
func BenchmarkTable3Breakdown(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table3(m)
	}
	reportCell(b, tab, 4, 1, "model_mxu_%")
}

// BenchmarkTable4CommTime regenerates Table 4 (step and collective-permute
// time vs per-core size and pod size) and reports the largest configuration's
// collective-permute time.
func BenchmarkTable4CommTime(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table4(m)
	}
	reportCell(b, tab, 6, 3, "model_comm_ms")
}

// BenchmarkTable5Roofline regenerates Table 5 (roofline and peak utilisation)
// and reports the achieved TFLOPS.
func BenchmarkTable5Roofline(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table5(m)
	}
	reportCell(b, tab, 0, 1, "model_TFLOPS")
	reportCell(b, tab, 0, 2, "model_roofline_%")
}

// BenchmarkTable6WeakScalingConv regenerates Table 6 (weak scaling of the
// conv-based implementation) and reports the largest dense configuration.
func BenchmarkTable6WeakScalingConv(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table6(m)
	}
	reportCell(b, tab, 19, 4, "model_flips/ns")
}

// BenchmarkTable7StrongScaling regenerates Table 7 (strong scaling of the
// conv-based implementation) and reports the 2048-core throughput.
func BenchmarkTable7StrongScaling(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Table7(m)
	}
	reportCell(b, tab, 8, 3, "model_flips/ns")
	reportCell(b, tab, 8, 4, "model_efficiency")
}

// BenchmarkAblationAlgorithms regenerates the update-kernel ablation (the
// Algorithm 1 vs Algorithm 2 vs conv comparison of Section 3 / the appendix)
// and reports the modelled Algorithm-2-over-Algorithm-1 speedup.
func BenchmarkAblationAlgorithms(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.AlgorithmAblation(m, 896, 448)
	}
	naive, err1 := strconv.ParseFloat(tab.Cell(0, 2), 64)
	optim, err2 := strconv.ParseFloat(tab.Cell(2, 2), 64)
	if err1 != nil || err2 != nil {
		b.Fatal("non-numeric ablation cells")
	}
	b.ReportMetric(naive/optim, "model_alg2_speedup")
}

// BenchmarkFigure8Comparison regenerates the cross-system throughput
// comparison of Figure 8.
func BenchmarkFigure8Comparison(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Figure8(m)
	}
	if len(tab.Rows) == 0 {
		b.Fatal("empty figure")
	}
}

// BenchmarkFigure9StrongScalingCurve regenerates Figure 9.
func BenchmarkFigure9StrongScalingCurve(b *testing.B) {
	m := perf.DefaultModel()
	var tab *harness.Table
	for i := 0; i < b.N; i++ {
		tab = harness.Figure9(m)
	}
	reportCell(b, tab, 8, 3, "model_efficiency")
}

// BenchmarkFigure4Point runs one real Monte-Carlo measurement point of the
// Figure 4 correctness study (one lattice size, one temperature, both
// precisions) per iteration. The full figure is generated by cmd/correctness.
func BenchmarkFigure4Point(b *testing.B) {
	cfg := harness.CorrectnessConfig{
		Sizes:        []int{32},
		TileSize:     8,
		Temperatures: []float64{ising.CriticalTemperature()},
		BurnIn:       100,
		Samples:      100,
		Seed:         1,
	}
	for i := 0; i < b.N; i++ {
		tab := harness.Figure4(cfg)
		if len(tab.Rows) != 2 {
			b.Fatal("unexpected figure shape")
		}
	}
}

// BenchmarkFigure7Point is the conv-based counterpart of BenchmarkFigure4Point.
func BenchmarkFigure7Point(b *testing.B) {
	cfg := harness.CorrectnessConfig{
		Sizes:        []int{32},
		TileSize:     8,
		Temperatures: []float64{ising.CriticalTemperature()},
		BurnIn:       100,
		Samples:      100,
		Seed:         1,
	}
	for i := 0; i < b.N; i++ {
		tab := harness.Figure7(cfg)
		if len(tab.Rows) != 2 {
			b.Fatal("unexpected figure shape")
		}
	}
}

// --- Host throughput: one benchmark per engine ------------------------------
//
// These time real sweeps on the machine running the benchmark, one engine at
// one size each, for `go test -bench` users. The repository's gated
// throughput figures come from the isingbench module (see BENCHMARK.json),
// which times with median-of-batches and reports a spread.

// timeSweeps times b.N calls of sweep, each updating spinsPerOp spins, and
// reports the measured throughput in host_flips/ns.
func timeSweeps(b *testing.B, spinsPerOp float64, sweep func()) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	b.ReportMetric(spinsPerOp*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "host_flips/ns")
}

// hostConfig is the benchmarks' size x size lattice at T=2.5, seed 1.
func hostConfig(size int) backend.Config {
	return backend.Config{Rows: size, Cols: size, Temperature: 2.5, Seed: 1}
}

// benchBackend builds one engine from the factory and times its sweeps.
func benchBackend(b *testing.B, name string, cfg backend.Config) {
	eng, err := backend.New(name, cfg)
	if err != nil {
		b.Fatal(err)
	}
	timeSweeps(b, float64(cfg.Rows)*float64(cfg.Cols), eng.Sweep)
}

// BenchmarkSweepOptim256 times the simulated-TPU Algorithm 2 kernel in
// bfloat16 (the host cost of the simulator, not modelled TPU throughput).
func BenchmarkSweepOptim256(b *testing.B) {
	sim := tpu.NewSimulator(tpu.Config{
		Rows: 256, Cols: 256, Temperature: 2.5,
		TileSize: 32, DType: tensor.BFloat16, Algorithm: tpu.AlgOptim, Seed: 1,
	})
	timeSweeps(b, 256*256, sim.Sweep)
}

// Scalar serial and parallel baselines and the bit-packed multispin engine.
func BenchmarkHostSerial256(b *testing.B)     { benchBackend(b, "checkerboard", hostConfig(256)) }
func BenchmarkHostParallel1024(b *testing.B)  { benchBackend(b, "gpusim", hostConfig(1024)) }
func BenchmarkHostMultispin1024(b *testing.B) { benchBackend(b, "multispin", hostConfig(1024)) }

// BenchmarkHostMultispin64 times the 64x64 one-shard chain of a small
// service job on one worker: one-word rows, whose accept draws the kernel
// takes a whole run of rows at a time.
func BenchmarkHostMultispin64(b *testing.B) {
	cfg := hostConfig(64)
	cfg.Workers = 1
	benchBackend(b, "multispin", cfg)
}

// BenchmarkSharded2x2_4096 times the mesh-sharded multispin engine on a 2x2
// shard grid: one goroutine per simulated mesh core, packed halo exchange
// through the interconnect fabric each half-sweep.
func BenchmarkSharded2x2_4096(b *testing.B) {
	cfg := hostConfig(4096)
	cfg.GridR, cfg.GridC = 2, 2
	benchBackend(b, "sharded", cfg)
}

// BenchmarkShardedEnsemble64_2x2_256 times the composed batched×sharded
// engine, a 64-lane batch of the sharded backend: 64 lane-packed chains
// advance on every shard of a 2x2 pod grid, halo words carrying all lanes at
// once. host_flips/ns is the aggregate over all lanes — the paper's per-core
// workload (a full replica batch between halo exchanges).
func BenchmarkShardedEnsemble64_2x2_256(b *testing.B) {
	const size, lanes = 256, 64
	cfg := hostConfig(size)
	cfg.GridR, cfg.GridC = 2, 2
	batch, err := backend.NewBatch("sharded", cfg, lanes)
	if err != nil {
		b.Fatal(err)
	}
	timeSweeps(b, size*size*lanes, batch.Sweep)
}

// BenchmarkShardedBatch8_2x2_256 times the other side of NewBatch's sharded
// route: an 8-lane batch, below the 16 lanes from which a pod-grid batch runs
// lane-packed, so it runs on the lane-parallel adapter (one bit-packed
// sharded pod per lane). At 256² the adapter sweeps 8 lanes faster than the
// lane-packed pod, which keeps a whole 64-lane word per site
// (BenchmarkBatchRoute in internal/ising/backend times both sides).
func BenchmarkShardedBatch8_2x2_256(b *testing.B) {
	const size, lanes = 256, 8
	cfg := hostConfig(size)
	cfg.GridR, cfg.GridC = 2, 2
	batch, err := backend.NewBatch("sharded", cfg, lanes)
	if err != nil {
		b.Fatal(err)
	}
	if batch.Name() != "sharded" {
		b.Fatalf("8-lane sharded batch runs on %q, want the adapter", batch.Name())
	}
	timeSweeps(b, size*size*lanes, batch.Sweep)
}

// BenchmarkEnsemble64_256 times whole-ensemble sweeps of a 64-lane multispin
// batch, which runs lane-packed on one shard (the "ensemble" engine): 64
// independent chains, each bit-identical to a standalone multispin chain,
// advance per Sweep, so host_flips/ns is the aggregate over all lanes.
func BenchmarkEnsemble64_256(b *testing.B) {
	const size, lanes = 256, 64
	e, err := backend.NewBatch("multispin", hostConfig(size), lanes)
	if err != nil {
		b.Fatal(err)
	}
	if e.Name() != "ensemble" {
		b.Fatalf("64-lane multispin batch runs on %q, want the lane-packed ensemble", e.Name())
	}
	timeSweeps(b, size*size*lanes, e.Sweep)
}

// BenchmarkTempering4_1024 times one round (5 sweeps per replica + one swap
// phase) of a 4-replica parallel-tempering ladder of multispin replicas
// across the default critical window. host_flips/ns is the aggregate over
// all replicas; against BenchmarkHostMultispin1024 it shows the swap phases
// (two 8-byte energy messages per pair) cost essentially nothing. Its one
// chain per rung is also how backend.NewBatchLadder runs a 4-rung multispin
// ladder: below 32 lanes a one-shard batch runs on the adapter.
func BenchmarkTempering4_1024(b *testing.B) {
	const size, replicas, swapInterval = 1024, 4, 5
	ens, err := tempering.New(tempering.Config{
		Temperatures: sweep.CriticalWindow(tempering.DefaultWindow(size*size, replicas), replicas),
		SwapInterval: swapInterval,
		Seed:         1,
	}, func(slot int, temperature float64) (ising.Backend, error) {
		return backend.New("multispin", backend.Config{
			Rows: size, Cols: size, Temperature: temperature,
			Seed: tempering.ReplicaSeed(1, slot),
		})
	})
	if err != nil {
		b.Fatal(err)
	}
	timeSweeps(b, size*size*replicas*swapInterval, ens.Round)
}

// BenchmarkEstimateSweepCounts times the analytic work estimator at paper
// scale (it must stay trivially cheap, since every table row calls it).
func BenchmarkEstimateSweepCounts(b *testing.B) {
	spec := perf.SweepSpec{
		Rows: 896 * 128, Cols: 448 * 128, Tile: 128,
		DType: tensor.BFloat16, Algorithm: perf.AlgOptim, Halo: true, PodX: 32, PodY: 16,
	}
	for i := 0; i < b.N; i++ {
		_ = perf.EstimateSweepCounts(spec)
	}
}
