// Package gpusim provides the GPU-style baselines the paper compares against
// (Section 4.2): the single-GPU checkerboard implementation of Preis et al.
// [23] / Block et al. [3] and its multi-GPU MPI variant, plus the published
// throughput constants for the external systems (Tesla V100, FPGA, DGX-2).
//
// Two things are provided:
//
//   - A runnable functional emulation of one device (Sampler) that executes
//     the same checkerboard Markov chain on the host CPU with a thread pool.
//     It produces chains bit-identical to the serial reference, so who-wins
//     comparisons against the TPU path are made on equal physics.
//   - A throughput/time model (DeviceModel, Cluster) whose single-device rates
//     are the published flips/ns numbers (exactly as the paper compares
//     against published numbers) and whose multi-device efficiency captures
//     the host-mediated (MPI through CPU) communication the paper contrasts
//     with the TPU pod's dedicated interconnect.
package gpusim

import (
	"fmt"
	"runtime"

	"tpuising/internal/device/metrics"
	"tpuising/internal/device/spec"
	"tpuising/internal/ising"
	"tpuising/internal/ising/checkerboard"
	"tpuising/internal/rng"
)

// DeviceModel is the performance description of one GPU (or FPGA) device used
// by the analytic comparison model.
type DeviceModel struct {
	// Name identifies the device in tables.
	Name string
	// FlipsPerNs is the sustained single-device whole-lattice update
	// throughput in spin flips per nanosecond (published or measured).
	FlipsPerNs float64
	// PowerWatts is the board power upper bound used for nJ/flip estimates.
	PowerWatts float64
}

// PreisGPU returns the single-GPU baseline of Preis et al. / Block et al.
func PreisGPU() DeviceModel {
	return DeviceModel{Name: "GPU (Preis/Block)", FlipsPerNs: 7.9774, PowerWatts: 200}
}

// TeslaV100 returns the paper's own CUDA port measured on a Tesla V100.
func TeslaV100() DeviceModel {
	return DeviceModel{Name: "Tesla V100", FlipsPerNs: 11.3704, PowerWatts: spec.TeslaV100().PowerWatts}
}

// FPGA returns the FPGA implementation of Ortega-Zamorano et al.
func FPGA() DeviceModel {
	return DeviceModel{Name: "FPGA", FlipsPerNs: 614.4, PowerWatts: 25}
}

// DGX2 and DGX2H return the 16-GPU systems of Romero et al. (Figure 8).
func DGX2() DeviceModel  { return DeviceModel{Name: "DGX-2", FlipsPerNs: 1829, PowerWatts: 10000} }
func DGX2H() DeviceModel { return DeviceModel{Name: "DGX-2H", FlipsPerNs: 2114, PowerWatts: 10000} }

// EnergyPerFlip returns the upper-bound nJ/flip estimate for the device.
func (d DeviceModel) EnergyPerFlip() float64 {
	return spec.EnergyPerFlip(d.PowerWatts, d.FlipsPerNs)
}

// HostLinkParams models the host-mediated communication path of a multi-GPU
// cluster: device-to-host staging over PCIe, MPI messages over the datacentre
// network, and the per-sweep software synchronisation overhead. This is the
// path the paper contrasts with the TPU pod's dedicated inter-chip links.
type HostLinkParams struct {
	// PCIeBandwidthBytesPerSec is the device<->host staging bandwidth.
	PCIeBandwidthBytesPerSec float64
	// NetworkBandwidthBytesPerSec is the host<->host (MPI) bandwidth.
	NetworkBandwidthBytesPerSec float64
	// MPILatencySec is the per-message latency of one exchange round.
	MPILatencySec float64
	// HostSyncSec is the fixed per-sweep host-side synchronisation and kernel
	// relaunch overhead per device.
	HostSyncSec float64
}

// DefaultHostLink returns parameters calibrated against the multi-GPU result
// the paper quotes from Block et al. [3]: 64 GPUs sustaining 206 flips/ns
// (~3.2 flips/ns per GPU against ~8 on a single GPU, i.e. ~40% efficiency) on
// an 800,000^2 lattice with ~3 s whole-lattice updates.
func DefaultHostLink() HostLinkParams {
	return HostLinkParams{
		PCIeBandwidthBytesPerSec:    12e9,
		NetworkBandwidthBytesPerSec: 1.25e9, // ~10 Gb/s datacentre link
		MPILatencySec:               50e-6,
		HostSyncSec:                 1.85, // seconds per sweep at Block et al. scale
	}
}

// Cluster is the analytic model of a multi-GPU cluster running the
// checkerboard algorithm with MPI halo exchange through the hosts.
type Cluster struct {
	// Device is the per-device performance model.
	Device DeviceModel
	// Devices is the number of GPUs.
	Devices int
	// LatticeSide is the side of the global square lattice.
	LatticeSide int64
	// Link is the host-mediated communication model.
	Link HostLinkParams
}

// NewCluster returns a cluster with the default host link parameters.
func NewCluster(device DeviceModel, devices int, latticeSide int64) Cluster {
	if devices <= 0 {
		panic("gpusim: cluster needs at least one device")
	}
	if latticeSide <= 0 {
		panic("gpusim: lattice side must be positive")
	}
	return Cluster{Device: device, Devices: devices, LatticeSide: latticeSide, Link: DefaultHostLink()}
}

// SpinsPerDevice returns the number of lattice sites owned by each device
// (strip decomposition along rows).
func (c Cluster) SpinsPerDevice() float64 {
	return float64(c.LatticeSide) * float64(c.LatticeSide) / float64(c.Devices)
}

// ComputeTime returns the per-sweep pure compute time of one device.
func (c Cluster) ComputeTime() float64 {
	return c.SpinsPerDevice() / (c.Device.FlipsPerNs * 1e9)
}

// ExchangeTime returns the per-sweep host-mediated halo-exchange time of one
// device: two boundary rows (one byte per spin in the packed representation of
// Block et al.) staged over PCIe, sent over the network, plus MPI latency and
// the host synchronisation overhead.
func (c Cluster) ExchangeTime() float64 {
	if c.Devices == 1 {
		return 0
	}
	boundaryBytes := float64(2 * c.LatticeSide) // two halo rows, 1 byte/spin
	l := c.Link
	return 2*boundaryBytes/l.PCIeBandwidthBytesPerSec +
		boundaryBytes/l.NetworkBandwidthBytesPerSec +
		2*l.MPILatencySec +
		l.HostSyncSec
}

// StepTime returns the modelled whole-lattice update time in seconds.
func (c Cluster) StepTime() float64 { return c.ComputeTime() + c.ExchangeTime() }

// Throughput returns the modelled cluster throughput in flips/ns.
func (c Cluster) Throughput() float64 {
	n := float64(c.LatticeSide) * float64(c.LatticeSide)
	return n / c.StepTime() / 1e9
}

// Efficiency returns the parallel efficiency relative to perfect scaling of
// the single-device throughput.
func (c Cluster) Efficiency() float64 {
	return c.Throughput() / (c.Device.FlipsPerNs * float64(c.Devices))
}

// String summarises the cluster configuration.
func (c Cluster) String() string {
	return fmt.Sprintf("%d x %s on %d^2 lattice", c.Devices, c.Device.Name, c.LatticeSide)
}

// Sampler is the runnable single-"GPU" functional emulation: the checkerboard
// chain executed by a pool of worker goroutines standing in for the CUDA
// thread blocks. The chain is bit-identical to the serial reference.
type Sampler struct {
	// Lattice is the spin configuration being evolved.
	Lattice *ising.Lattice
	// Beta is the inverse temperature.
	Beta float64
	// Workers is the goroutine pool size (0 = GOMAXPROCS).
	Workers int

	temperature float64 // the T that Beta was derived from, kept for snapshots
	sk          *rng.SiteKeyed
	step        uint64
}

// NewSampler builds a sampler at the given temperature.
func NewSampler(l *ising.Lattice, temperature float64, seed uint64, workers int) *Sampler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Sampler{Lattice: l, Beta: ising.Beta(temperature), temperature: temperature,
		Workers: workers, sk: rng.NewSiteKeyed(seed)}
}

// Sweep performs one whole-lattice update.
func (s *Sampler) Sweep() {
	s.step = checkerboard.ParallelSweep(s.Lattice, s.Beta, s.sk, s.step, s.Workers)
}

// Run performs n sweeps.
func (s *Sampler) Run(n int) {
	for i := 0; i < n; i++ {
		s.Sweep()
	}
}

// Step returns the number of colour updates performed so far.
func (s *Sampler) Step() uint64 { return s.step }

// N returns the number of spins.
func (s *Sampler) N() int { return s.Lattice.N() }

// SetTemperature changes the simulation temperature; the chain continues from
// the current configuration (used by the replica-exchange layer).
func (s *Sampler) SetTemperature(t float64) {
	s.Beta = ising.Beta(t)
	s.temperature = t
}

// Name identifies the engine; the Sampler is the GPU-style parallel baseline.
func (s *Sampler) Name() string { return "gpusim" }

// Magnetization returns the magnetisation per spin.
func (s *Sampler) Magnetization() float64 { return s.Lattice.Magnetization() }

// Energy returns the energy per spin.
func (s *Sampler) Energy() float64 { return s.Lattice.Energy() }

// Counts reports the attempted spin updates in Ops; the sampler runs on the
// host, so no device work is modelled.
func (s *Sampler) Counts() metrics.Counts {
	return metrics.Counts{Ops: int64(s.step) * int64(s.Lattice.N()) / 2}
}
