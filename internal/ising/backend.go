package ising

import "tpuising/internal/device/metrics"

// Backend is the interface every Ising engine in this repository satisfies:
// the serial checkerboard reference, the GPU-style parallel baseline, the
// bit-packed multispin engine and the simulated-TPU simulator. The
// temperature-sweep driver, the service, the CLI and the benchmarks all
// select engines through it (see internal/ising/backend for the name-based
// factory).
type Backend interface {
	// Name identifies the engine in tables, flags and benchmark output.
	Name() string
	// Sweep advances the chain by one whole-lattice update (both colours).
	Sweep()
	// Step returns the number of colour updates performed so far (two per
	// sweep, matching the checkerboard step-index convention).
	Step() uint64
	// Magnetization returns the magnetisation per spin of the current state.
	Magnetization() float64
	// Energy returns the energy per spin of the current state.
	Energy() float64
	// Counts returns the work counters accumulated since construction (or the
	// last reset). Device-simulator backends report modelled device work;
	// host backends report the attempted spin updates in Counts.Ops.
	Counts() metrics.Counts
}

// Tempered is the optional extension of Backend that the replica-exchange
// layer (internal/tempering) requires of its replicas: the engine must expose
// its spin count, so swap decisions can use the extensive (total) energy, and
// it must be able to continue its chain at a new temperature after an
// accepted swap re-labels the replica. Every registered engine implements it
// — the host engines recompute their acceptance thresholds, and the tpu
// simulator re-derives beta as in an annealing schedule.
type Tempered interface {
	Backend
	// N returns the number of spins of the lattice.
	N() int
	// SetTemperature changes the simulation temperature; the chain continues
	// from the current configuration.
	SetTemperature(t float64)
}
