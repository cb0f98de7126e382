package harness

import (
	"fmt"
	"math"

	"tpuising/internal/device/spec"
	"tpuising/internal/ising/gpusim"
	"tpuising/internal/perf"
	"tpuising/internal/tensor"
)

// anchor per-core lattice of Tables 2-5 (in units of 128-site tiles).
const (
	superdenseRowTiles = 896
	superdenseColTiles = 448
	denseTiles         = 448
	looseTiles         = 224
)

// podCounts estimates one core's per-sweep work for the Algorithm 2
// distributed configuration.
func podCounts(rowTiles, colTiles, podX, podY int) (c perf.SweepSpec) {
	return perf.SweepSpec{
		Rows: rowTiles * 128, Cols: colTiles * 128, Tile: 128,
		DType: tensor.BFloat16, Algorithm: perf.AlgOptim,
		Halo: true, PodX: podX, PodY: podY,
	}
}

// Table1 regenerates the single-core throughput and energy table: Algorithm 2
// in bfloat16 on one TPU v3 TensorCore for square lattices from (20x128)^2 to
// (640x128)^2, with the published GPU, V100 and FPGA baselines as reference
// rows.
func Table1(m perf.Model) *Table {
	t := &Table{
		ID:    "table1",
		Title: "Single TPU v3 core throughput (flips/ns) and energy (nJ/flip) vs lattice size",
		Columns: []string{
			"lattice size", "flips/ns", "nJ/flip",
		},
	}
	for _, tiles := range []int{20, 40, 80, 160, 320, 640} {
		side := tiles * 128
		counts := perf.EstimateSweepCounts(perf.SweepSpec{
			Rows: side, Cols: side, Tile: 128,
			DType: tensor.BFloat16, Algorithm: perf.AlgOptim,
		})
		step := m.StepBreakdown(counts, 1).StepSec()
		tput := perf.Throughput(float64(side)*float64(side), step)
		t.AddRow(fmt.Sprintf("(%dx128)^2", tiles), tput, m.EnergyPerFlip(tput))
	}
	for _, ref := range []gpusim.DeviceModel{gpusim.PreisGPU(), gpusim.TeslaV100(), gpusim.FPGA()} {
		t.AddRow(ref.Name, ref.FlipsPerNs, ref.EnergyPerFlip())
	}
	t.Notes = append(t.Notes,
		"TPU rows from the calibrated performance model (single core, Algorithm 2, bfloat16)",
		"reference rows are published numbers, as in the paper")
	return t
}

// Table2 regenerates the weak-scaling table: per-core [896x128, 448x128]
// lattices on n x n x 2 core pods from 2 to 512 cores, plus the published
// 64-GPU MPI cluster as a reference row.
func Table2(m perf.Model) *Table {
	t := &Table{
		ID:    "table2",
		Title: "Weak scaling of Algorithm 2 on TPU v3 pods (per-core lattice [896x128, 448x128])",
		Columns: []string{
			"#cores", "lattice size", "step time (ms)", "flips/ns", "nJ/flip",
		},
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		cores := n * n * 2
		sp := podCounts(superdenseRowTiles, superdenseColTiles, 2*n, n)
		counts := perf.EstimateSweepCounts(sp)
		step := m.StepBreakdown(counts, cores).StepSec()
		globalSpins := float64(sp.Rows) * float64(sp.Cols) * float64(cores)
		tput := perf.Throughput(globalSpins, step)
		perCore := tput / float64(cores)
		t.AddRow(
			fmt.Sprintf("%dx%dx2", n, n),
			fmt.Sprintf("(%dx128)^2", 512*n),
			step*1e3, tput, m.EnergyPerFlip(perCore),
		)
	}
	blocks := gpusim.NewCluster(gpusim.PreisGPU(), 64, 800000)
	t.AddRow("64 GPUs + MPI [3]",
		fmt.Sprintf("%d^2", blocks.LatticeSide),
		blocks.StepTime()*1e3, blocks.Throughput(), blocks.Device.EnergyPerFlip())
	t.Notes = append(t.Notes,
		"each n x n x 2 pod holds a (512*128*n)^2 global lattice",
		"the GPU reference row is the host-mediated MPI cluster model calibrated to Block et al.")
	return t
}

// Table3 regenerates the step-time breakdown percentages (MXU, VPU, data
// formatting, collective permute) across pod sizes.
func Table3(m perf.Model) *Table {
	t := &Table{
		ID:    "table3",
		Title: "Percentage time breakdown of the computation (per-core lattice [896x128, 448x128])",
		Columns: []string{
			"#cores", "MXU %", "VPU %", "data formatting %", "collective permute %",
		},
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		cores := n * n * 2
		counts := perf.EstimateSweepCounts(podCounts(superdenseRowTiles, superdenseColTiles, 2*n, n))
		b := m.StepBreakdown(counts, cores)
		mxu, vpu, format, comm := b.Fractions()
		t.AddRow(fmt.Sprintf("%dx%dx2", n, n),
			100*mxu, 100*vpu, 100*format, fmt.Sprintf("%.3f", 100*comm))
	}
	return t
}

// Table4 regenerates the step-time and collective-permute-time table across
// per-core lattice sizes and pod sizes.
func Table4(m perf.Model) *Table {
	t := &Table{
		ID:    "table4",
		Title: "Step time and collective-permute time (ms) vs per-core lattice size and pod size",
		Columns: []string{
			"#cores", "per-core lattice", "step time (ms)", "collective permute (ms)",
		},
	}
	perCore := []struct {
		rows, cols int
		label      string
	}{
		{896, 448, "[896x128, 448x128]"},
		{448, 224, "[448x128, 224x128]"},
		{224, 112, "[224x128, 112x128]"},
	}
	for _, n := range []int{4, 8, 16} {
		cores := n * n * 2
		for _, pc := range perCore {
			counts := perf.EstimateSweepCounts(podCounts(pc.rows, pc.cols, 2*n, n))
			b := m.StepBreakdown(counts, cores)
			t.AddRow(fmt.Sprintf("%dx%dx2", n, n), pc.label,
				b.StepSec()*1e3, fmt.Sprintf("%.3f", b.CommSec*1e3))
		}
	}
	t.Notes = append(t.Notes,
		"the collective-permute time is dominated by synchronisation, not bandwidth, as in the paper")
	return t
}

// Table5 regenerates the roofline/FLOPS-utilisation table.
func Table5(m perf.Model) *Table {
	t := &Table{
		ID:    "table5",
		Title: "Achieved FLOPS as % of the roofline optimum and of the hardware peak",
		Columns: []string{
			"#cores", "achieved TFLOPS", "% of roofline", "% of HW peak", "memory bound",
		},
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		cores := n * n * 2
		counts := perf.EstimateSweepCounts(podCounts(superdenseRowTiles, superdenseColTiles, 2*n, n))
		b := m.StepBreakdown(counts, cores)
		r := m.RooflineAnalysis(counts, b.StepSec())
		t.AddRow(fmt.Sprintf("%dx%dx2", n, n),
			r.AchievedFLOPS/1e12, r.PctOfRoofline, r.PctOfPeak, fmt.Sprintf("%v", r.MemoryBound))
	}
	return t
}

// convTopologies lists the core grids of the appendix weak-scaling table.
var convTopologies = []struct{ x, y int }{
	{2, 2}, {3, 3}, {4, 4}, {6, 6}, {8, 8}, {11, 11}, {16, 16}, {23, 23}, {32, 32}, {45, 45},
}

// Table6 regenerates the weak-scaling table of the conv-based implementation
// at the three packing densities of the appendix.
func Table6(m perf.Model) *Table {
	t := &Table{
		ID:    "table6",
		Title: "Weak scaling of the conv-based implementation (TensorFlow r1.15 equivalent)",
		Columns: []string{
			"core topology", "per-core lattice", "whole lattice", "step time (ms)", "flips/ns",
		},
	}
	conv := m.ForConv()
	type density struct {
		rows, cols int
		label      string
	}
	densities := []density{
		{looseTiles, looseTiles, "[224, 224] x 128"},
		{denseTiles, denseTiles, "[448, 448] x 128"},
		{superdenseRowTiles, superdenseColTiles, "[896, 448] x 128"},
	}
	for di, d := range densities {
		topos := convTopologies
		if di == 2 {
			// The superdense section of the appendix uses rectangular grids.
			topos = []struct{ x, y int }{{2, 4}, {4, 8}, {8, 16}, {16, 32}, {32, 64}}
		}
		for _, topo := range topos {
			cores := topo.x * topo.y
			counts := perf.EstimateSweepCounts(perf.SweepSpec{
				Rows: d.rows * 128, Cols: d.cols * 128, Tile: 128,
				DType: tensor.BFloat16, Algorithm: perf.AlgConv,
				Halo: true, PodX: topo.x, PodY: topo.y,
			})
			b := conv.StepBreakdown(counts, cores)
			globalSpins := float64(d.rows*128) * float64(d.cols*128) * float64(cores)
			side := int(math.Round(math.Sqrt(globalSpins)))
			t.AddRow(fmt.Sprintf("[%d, %d]", topo.x, topo.y), d.label,
				fmt.Sprintf("(%d)^2", side), b.StepSec()*1e3,
				perf.Throughput(globalSpins, b.StepSec()))
		}
	}
	return t
}

// Table7 regenerates the strong-scaling table of the conv-based
// implementation on the fixed (128x1792)^2 lattice.
func Table7(m perf.Model) *Table {
	t := &Table{
		ID:    "table7",
		Title: "Strong scaling of the conv-based implementation on the (128x1792)^2 lattice",
		Columns: []string{
			"core topology", "per-core lattice", "step time (ms)", "flips/ns", "parallel efficiency",
		},
	}
	conv := m.ForConv()
	rows := strongScalingRows(conv)
	base := 0.0
	for i, r := range rows {
		perCore := r.throughput / float64(r.cores)
		if i == 0 {
			base = perCore
		}
		t.AddRow(fmt.Sprintf("[%d, %d]", r.podX, r.podY),
			fmt.Sprintf("[%d, %d] x 128", r.rowTiles, r.colTiles),
			r.stepSec*1e3, r.throughput, perCore/base)
	}
	t.Notes = append(t.Notes,
		"scaling departs from linear beyond ~1000 cores as the collective-permute overhead grows")
	return t
}

// strongRow is one row of the strong-scaling experiment, shared by Table 7
// and Figure 9.
type strongRow struct {
	podX, podY         int
	rowTiles, colTiles int
	cores              int
	stepSec            float64
	throughput         float64
}

// strongScalingRows computes the Table 7 / Figure 9 data points.
func strongScalingRows(conv perf.Model) []strongRow {
	const sideTiles = 1792
	configs := []struct {
		podX, podY         int
		rowTiles, colTiles int
	}{
		{2, 4, 896, 448},
		{4, 4, 448, 448},
		{4, 8, 448, 224},
		{8, 8, 224, 224},
		{8, 16, 224, 112},
		{16, 16, 112, 112},
		{16, 32, 112, 56},
		{32, 32, 56, 56},
		{32, 64, 56, 28},
	}
	globalSpins := float64(sideTiles*128) * float64(sideTiles*128)
	rows := make([]strongRow, 0, len(configs))
	for _, cfg := range configs {
		cores := cfg.podX * cfg.podY
		counts := perf.EstimateSweepCounts(perf.SweepSpec{
			Rows: cfg.rowTiles * 128, Cols: cfg.colTiles * 128, Tile: 128,
			DType: tensor.BFloat16, Algorithm: perf.AlgConv,
			Halo: true, PodX: cfg.podX, PodY: cfg.podY,
		})
		b := conv.StepBreakdown(counts, cores)
		rows = append(rows, strongRow{
			podX: cfg.podX, podY: cfg.podY,
			rowTiles: cfg.rowTiles, colTiles: cfg.colTiles,
			cores:      cores,
			stepSec:    b.StepSec(),
			throughput: perf.Throughput(globalSpins, b.StepSec()),
		})
	}
	return rows
}

// TableHBM is an extension table (not in the paper's numbered set) recording
// the memory-capacity claim of Section 4.2.1: the largest single-core lattice
// in each precision.
func TableHBM(m perf.Model) *Table {
	t := &Table{
		ID:    "table_hbm",
		Title: "Largest single-core square lattice fitting in 16 GB HBM",
		Columns: []string{
			"precision", "max lattice side", "in 128-tiles", "HBM utilisation %",
		},
	}
	for _, d := range []tensor.DType{tensor.BFloat16, tensor.Float32} {
		side := m.MaxSquareLattice(128, d)
		util := 100 * float64(perf.HBMFootprintBytes(side, side, 128, d)) / float64(m.Chip.HBMBytes)
		name := "bfloat16"
		if d == tensor.Float32 {
			name = "float32"
		}
		t.AddRow(name, side, fmt.Sprintf("%dx128", side/128), util)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("the paper reports (656x128)^2 = 83968^2 for bfloat16 at 96%% utilisation; docs/PHYSICS.md records the deviation"),
		fmt.Sprintf("TPU v3 core HBM capacity: %d GiB", spec.TPUv3Core().HBMBytes>>30))
	return t
}
