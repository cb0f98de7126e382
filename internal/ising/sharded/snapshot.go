package sharded

import (
	"encoding/binary"

	"tpuising/internal/ising"
	"tpuising/internal/rng"
)

// Snapshot captures the engine's chain state in whole-lattice coordinates:
// the shards' packed words are gathered in global row-major word order and
// dumped little-endian — byte-for-byte the same for every shard grid holding
// the same configuration, the single core that serves multispin included.
// The snapshot carries the engine's name (so a multispin or sharded
// snapshot restores only into its own backend), the site-keyed
// Philox key and the colour-step counter; the shard grid is deliberately
// absent, since the chain is a pure function of (seed, step, global site)
// and restores into any grid of the same lattice. It satisfies
// ising.Snapshotter.
func (e *Engine) Snapshot() (*ising.Snapshot, error) {
	spins := make([]byte, 0, ising.PackedSpinBytes(e.Rows(), e.Cols()))
	e.EachRow(func(_, _ int, words []uint64) {
		for _, v := range words {
			spins = binary.LittleEndian.AppendUint64(spins, v)
		}
	})
	return &ising.Snapshot{
		Backend:     e.Name(),
		Rows:        e.Rows(),
		Cols:        e.Cols(),
		Temperature: e.temperature,
		Step:        e.Step(),
		RNG:         rng.MarshalKey(e.kern.Key),
		Spins:       spins,
	}, nil
}

// Restore replaces the engine's chain state with a snapshot previously taken
// from the same backend at the same lattice size (any shard grid):
// the global packed words are scattered back over the shards, and the step
// counter (from which Counts derives the host Ops) is restored, so Counts
// stays consistent with an uninterrupted run. The interconnect counters
// restart from zero — they count this process's halo traffic, not the
// chain's history.
func (e *Engine) Restore(snap *ising.Snapshot) error {
	if err := snap.Check(e.Name(), e.Rows(), e.Cols()); err != nil {
		return err
	}
	key, err := rng.UnmarshalKey(snap.RNG)
	if err != nil {
		return err
	}
	e.kern.Key = key
	spins := snap.Spins
	e.EachRow(func(_, _ int, words []uint64) {
		for w := range words {
			words[w] = binary.LittleEndian.Uint64(spins)
			spins = spins[8:]
		}
	})
	e.SetTemperature(snap.Temperature)
	e.SetStep(snap.Step)
	e.dropObservables()
	return nil
}
