package shardedensemble

import (
	"tpuising/internal/device/metrics"
	"tpuising/internal/ising"
	"tpuising/internal/rng"
)

// Single adapts a one-lane sharded ensemble into a plain single-chain
// ising.Backend — the form the registry serves under the name
// "sharded-ensemble", so the CLI, the service and the benchmarks can run the
// composed engine like any other backend. It satisfies ising.Backend,
// ising.Tempered and ising.Snapshotter. The chain is bit-identical to a
// standalone multispin chain with the same seed (lane 0's contract),
// whatever the shard grid.
type Single struct {
	e *Engine
}

// NewSingle builds a one-lane sharded ensemble from the config (Lanes and
// Temperatures are overridden: one lane at cfg.Temperature).
func NewSingle(cfg Config) (*Single, error) {
	cfg.Lanes = 1
	cfg.Temperatures = nil
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &Single{e: e}, nil
}

// Engine exposes the underlying batch engine (for tests and profiling).
func (s *Single) Engine() *Engine { return s.e }

// Name identifies the engine ("sharded-ensemble").
func (s *Single) Name() string { return s.e.Name() }

// Sweep advances the chain by one whole-lattice update.
func (s *Single) Sweep() { s.e.Sweep() }

// Step returns the number of colour updates performed so far.
func (s *Single) Step() uint64 { return s.e.Step() }

// N returns the number of spins.
func (s *Single) N() int { return s.e.N() }

// Magnetization returns the magnetisation per spin.
func (s *Single) Magnetization() float64 { return s.e.Magnetizations()[0] }

// Energy returns the energy per spin.
func (s *Single) Energy() float64 { return s.e.Energies()[0] }

// Temperature returns the current temperature.
func (s *Single) Temperature() float64 { return s.e.LaneTemperature(0) }

// SetTemperature changes the simulation temperature; the chain continues
// from the current configuration.
func (s *Single) SetTemperature(t float64) { s.e.SetLaneTemperature(0, t) }

// Counts reports the chain's host work and the pod's interconnect traffic.
func (s *Single) Counts() metrics.Counts { return s.e.Counts() }

// Snapshot captures the chain state in whole-lattice coordinates: lane 0's
// spins gathered in global row-major order, the lane's Philox key and the
// colour-step counter. The shard grid is deliberately absent — the chain is
// a pure function of (seed, step, global site) and restores into any grid of
// the same lattice, exactly like the sharded backend's snapshots. It
// satisfies ising.Snapshotter.
func (s *Single) Snapshot() (*ising.Snapshot, error) {
	return &ising.Snapshot{
		Backend:     s.Name(),
		Rows:        s.e.Rows(),
		Cols:        s.e.Cols(),
		Temperature: s.Temperature(),
		Step:        s.e.Step(),
		RNG:         rng.MarshalKey(s.e.kern.LaneKey(0)),
		Spins:       s.e.LaneLattice(0).PackSpins(),
	}, nil
}

// Restore replaces the chain state with a snapshot previously taken from a
// sharded-ensemble engine at the same lattice size (any shard grid).
func (s *Single) Restore(snap *ising.Snapshot) error {
	if err := snap.Check(s.Name(), s.e.Rows(), s.e.Cols()); err != nil {
		return err
	}
	key, err := rng.UnmarshalKey(snap.RNG)
	if err != nil {
		return err
	}
	lat := ising.NewLattice(s.e.Rows(), s.e.Cols())
	if err := lat.UnpackSpins(snap.Spins); err != nil {
		return err
	}
	s.e.kern.SetLaneKey(0, key)
	if err := s.e.SetLaneLattice(0, lat); err != nil {
		return err
	}
	s.SetTemperature(snap.Temperature)
	s.e.SetStep(snap.Step)
	return nil
}
