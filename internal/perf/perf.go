package perf

import (
	"math"

	"tpuising/internal/device/metrics"
	"tpuising/internal/device/spec"
	"tpuising/internal/interconnect"
	"tpuising/internal/tensor"
)

// Anchor configuration: the Table 2 per-core lattice and its published step
// time and Table 3 breakdown, used to calibrate the effective rates.
const (
	anchorStepSec    = 0.575
	anchorMXUFrac    = 0.596
	anchorVPUFrac    = 0.120
	anchorFormatFrac = 0.282

	// anchorConvStepSec is the Table 6 step time of the conv-based
	// implementation at the same per-core lattice, used to calibrate the
	// effective MXU rate of the convolution lowering (which leaves most of
	// the systolic array idle and is therefore far less efficient per MAC).
	anchorConvStepSec = 0.3324

	// opOverheadSec is the per-dispatched-operation launch overhead. It is
	// what makes small lattices slower per spin (Table 1's throughput rising
	// with lattice size): the number of operations per sweep is independent
	// of the lattice size, so the overhead is amortised as the lattice grows.
	opOverheadSec = 3.2e-6
)

// anchorRows and anchorCols are the Table 2 per-core lattice dimensions.
const (
	anchorRows = 896 * 128
	anchorCols = 448 * 128
)

// Model holds the calibrated effective rates of one TPU v3 TensorCore plus
// the interconnect link parameters.
type Model struct {
	// Chip is the hardware spec used for peak/roofline/energy numbers.
	Chip spec.Chip
	// MXUMacsPerSec is the sustained matrix-unit MAC rate for the batched
	// tile multiplications of Algorithms 1 and 2.
	MXUMacsPerSec float64
	// ConvMacsPerSec is the sustained MAC rate of the convolution lowering
	// used by the appendix implementation.
	ConvMacsPerSec float64
	// VPUOpsPerSec is the sustained weighted vector-lane operation rate.
	VPUOpsPerSec float64
	// FormatBytesPerSec is the sustained on-core data-movement bandwidth.
	FormatBytesPerSec float64
	// OpOverheadSec is the per-operation dispatch overhead.
	OpOverheadSec float64
	// Link is the interconnect cost model for collective permutes.
	Link interconnect.LinkParams
}

// DefaultModel returns the TPU v3 model calibrated against the paper's anchor
// configuration. The calibration divides the anchor's analytically estimated
// work counters by the published step-time fractions, so the anchor row of
// Table 2/3 is reproduced exactly and everything else follows.
func DefaultModel() Model {
	anchor := EstimateSweepCounts(SweepSpec{
		Rows: anchorRows, Cols: anchorCols, Tile: 128,
		DType: tensor.BFloat16, Algorithm: AlgOptim,
		Halo: true, PodX: 2, PodY: 1,
	})
	m := Model{
		Chip:              spec.TPUv3Core(),
		MXUMacsPerSec:     float64(anchor.MXUMacs) / (anchorMXUFrac * anchorStepSec),
		VPUOpsPerSec:      float64(anchor.VPUOps) / (anchorVPUFrac * anchorStepSec),
		FormatBytesPerSec: float64(anchor.FormatBytes) / (anchorFormatFrac * anchorStepSec),
		OpOverheadSec:     opOverheadSec,
		Link:              interconnect.DefaultLinkParams(),
	}
	// Conv calibration: at the anchor per-core lattice the conv variant has
	// essentially no data-formatting work, so its MXU rate is whatever makes
	// the Table 6 anchor step time come out after the (shared) VPU and
	// dispatch components are accounted for.
	conv := EstimateSweepCounts(SweepSpec{
		Rows: anchorRows, Cols: anchorCols, Tile: 128,
		DType: tensor.BFloat16, Algorithm: AlgConv,
		Halo: true, PodX: 2, PodY: 1,
	})
	remaining := anchorConvStepSec -
		float64(conv.VPUOps)/m.VPUOpsPerSec -
		float64(conv.FormatBytes)/m.FormatBytesPerSec -
		float64(conv.Ops)*m.OpOverheadSec
	m.ConvMacsPerSec = float64(conv.MXUMacs) / remaining
	return m
}

// ForConv returns a copy of the model whose matrix-unit rate is the
// convolution-lowering rate, for estimating the appendix implementation.
func (m Model) ForConv() Model {
	out := m
	out.MXUMacsPerSec = m.ConvMacsPerSec
	return out
}

// Breakdown is the modelled composition of one step (whole-lattice update),
// mirroring the categories of the paper's Table 3.
type Breakdown struct {
	// MXUSec is the matrix-unit time.
	MXUSec float64
	// VPUSec is the vector-unit time (dominated by random-number generation).
	VPUSec float64
	// FormatSec is the data-formatting time (slicing, rolling, reshaping,
	// plus the per-operation dispatch overhead).
	FormatSec float64
	// CommSec is the collective-permute time.
	CommSec float64
}

// StepSec returns the total modelled step time.
func (b Breakdown) StepSec() float64 { return b.MXUSec + b.VPUSec + b.FormatSec + b.CommSec }

// Fractions returns the four components as fractions of the step time, in
// the order MXU, VPU, data formatting, collective permute.
func (b Breakdown) Fractions() (mxu, vpu, format, comm float64) {
	s := b.StepSec()
	if s == 0 {
		return 0, 0, 0, 0
	}
	return b.MXUSec / s, b.VPUSec / s, b.FormatSec / s, b.CommSec / s
}

// StepBreakdown converts one core's per-sweep work counters into the modelled
// step time composition. numCores is the pod size (1 for a standalone core);
// it enters only through the synchronisation term of the collective permutes.
func (m Model) StepBreakdown(c metrics.Counts, numCores int) Breakdown {
	if numCores < 1 {
		numCores = 1
	}
	b := Breakdown{
		MXUSec:    float64(c.MXUMacs) / m.MXUMacsPerSec,
		VPUSec:    float64(c.VPUOps) / m.VPUOpsPerSec,
		FormatSec: float64(c.FormatBytes)/m.FormatBytesPerSec + float64(c.Ops)*m.OpOverheadSec,
	}
	if c.CommEvents > 0 {
		l := m.Link
		b.CommSec = float64(c.CommEvents)*(l.SyncLatencySec+l.SyncPerSqrtCoreSec*math.Sqrt(float64(numCores))) +
			float64(c.CommHops)*l.HopLatencySec +
			float64(c.CommBytes)/l.BandwidthBytesPerSec
	}
	return b
}

// Throughput converts a step time into the paper's flips/ns metric for a
// system holding the given total number of spins.
func Throughput(totalSpins float64, stepSec float64) float64 {
	if stepSec <= 0 {
		return 0
	}
	return totalSpins / (stepSec * 1e9)
}

// EnergyPerFlip returns the upper-bound energy estimate in nJ/flip for the
// given per-core throughput, as in Tables 1 and 2 (powerWatts is per core).
func (m Model) EnergyPerFlip(flipsPerNsPerCore float64) float64 {
	return spec.EnergyPerFlip(m.Chip.PowerWatts, flipsPerNsPerCore)
}

// Roofline is the Table 5 analysis of one configuration.
type Roofline struct {
	// AchievedFLOPS is the program FLOP rate (2 FLOPs per MAC plus the
	// vector-unit work).
	AchievedFLOPS float64
	// ArithmeticIntensity is FLOPs per byte of HBM traffic.
	ArithmeticIntensity float64
	// RooflineFLOPS is the attainable rate at this intensity:
	// min(peak, intensity * HBM bandwidth).
	RooflineFLOPS float64
	// PctOfRoofline is AchievedFLOPS / RooflineFLOPS in percent.
	PctOfRoofline float64
	// PctOfPeak is AchievedFLOPS / hardware peak in percent.
	PctOfPeak float64
	// MemoryBound reports whether the roofline at this intensity is the
	// memory-bandwidth slope rather than the compute peak.
	MemoryBound bool
}

// RooflineAnalysis computes the Table 5 quantities from one core's per-sweep
// counters and the modelled (or measured) step time.
func (m Model) RooflineAnalysis(c metrics.Counts, stepSec float64) Roofline {
	r := Roofline{}
	if stepSec <= 0 || c.HBMBytes == 0 {
		return r
	}
	flops := float64(c.FLOPs())
	r.AchievedFLOPS = flops / stepSec
	r.ArithmeticIntensity = flops / float64(c.HBMBytes)
	r.RooflineFLOPS = math.Min(m.Chip.PeakFLOPS, r.ArithmeticIntensity*m.Chip.HBMBandwidth)
	r.MemoryBound = r.RooflineFLOPS < m.Chip.PeakFLOPS
	r.PctOfRoofline = 100 * r.AchievedFLOPS / r.RooflineFLOPS
	r.PctOfPeak = 100 * r.AchievedFLOPS / m.Chip.PeakFLOPS
	return r
}

// HBMFootprintBytes returns the device memory needed to hold the Algorithm 2
// state for a per-core lattice: the four persistent compact colour planes
// plus the working set of one colour update (the probability tensors of the
// two planes being updated; the acceptance/flip chain is assumed fused, as
// XLA does). This backs the paper's claim that a single core holds a lattice
// of order (656x128)^2 in bfloat16 — our slightly more conservative working
// set gives (590x128)^2, recorded as a deviation in docs/PHYSICS.md.
func HBMFootprintBytes(rows, cols, tile int, dtype tensor.DType) int64 {
	mp, np := rows/(2*tile), cols/(2*tile)
	plane := tb(dtype, mp, np, tile, tile)
	kernel := tb(dtype, tile, tile)
	// 4 persistent planes + 2 probability tensors for the colour being
	// updated + the kernel and its transpose.
	return 4*plane + 2*plane + 2*kernel
}

// MaxSquareLattice returns the largest multiple-of-(2*tile) square lattice
// side whose Algorithm 2 footprint fits in the core's HBM.
func (m Model) MaxSquareLattice(tile int, dtype tensor.DType) int {
	side := 2 * tile
	for HBMFootprintBytes(side+2*tile, side+2*tile, tile, dtype) <= m.Chip.HBMBytes {
		side += 2 * tile
	}
	return side
}
