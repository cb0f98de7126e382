package ising

import (
	"fmt"
	"runtime"
	"sync"

	"tpuising/internal/device/metrics"
)

// BatchBackend is the batched counterpart of Backend: B independent Markov
// chains ("lanes") over lattices of one size, advanced together by a single
// Sweep. It is the ensemble axis of the repository — the paper's headline
// throughput comes not only from bit-packing one lattice but from each core
// simulating a batch of independent lattices at once, and every layer that
// consumes backends (tempering ladders, temperature sweeps, the simulation
// service, the CLI) can run B chains for roughly the price of one through
// this interface. Two implementations exist: the generic adapter returned by
// NewBatchOf, which lifts any registered Backend into a lane-parallel
// ensemble, and the lane-packed engine of internal/ising/shardedensemble
// (the internal/ising/ensemble kernel on the pod Driver), which stores one
// bit per chain in each uint64 word.
type BatchBackend interface {
	// Name identifies the engine in tables, flags and benchmark output.
	Name() string
	// Lanes returns the number of independent chains B.
	Lanes() int
	// N returns the number of spins of one lane's lattice.
	N() int
	// Sweep advances every lane by one whole-lattice update (both colours).
	Sweep()
	// Step returns the number of colour updates performed so far per lane
	// (two per sweep, like Backend.Step).
	Step() uint64
	// Magnetizations returns the magnetisation per spin of every lane, in
	// lane order. The returned slice is the caller's to keep.
	Magnetizations() []float64
	// Energies returns the energy per spin of every lane, in lane order.
	Energies() []float64
	// Counts returns the work counters accumulated over all lanes.
	Counts() metrics.Counts
}

// BatchTempered is the optional extension of BatchBackend that the
// replica-exchange layer requires when it runs its ladder as one ensemble
// (one lane per rung): each lane's temperature must be changeable
// independently, so an accepted swap can re-label two lanes in place.
type BatchTempered interface {
	BatchBackend
	// SetLaneTemperature changes one lane's simulation temperature; the
	// lane's chain continues from its current configuration.
	SetLaneTemperature(lane int, t float64)
}

// LaneSeed derives the chain seed of one ensemble lane from the run seed (a
// splitmix-style odd-constant hop), so lanes never share site-keyed streams.
// It is the single seed-derivation rule of the batch axis: the generic
// adapter, the lane-packed engine, the tempering ladder
// (tempering.ReplicaSeed delegates here) and the service's replicated jobs
// all seed lane L with LaneSeed(seed, L), which is what makes lane L of a
// packed ensemble bit-identical to a standalone chain run with the same
// derived seed.
func LaneSeed(seed uint64, lane int) uint64 {
	return seed + uint64(lane)*0x9E3779B97F4A7C15
}

// Batch is the generic batch adapter: B independently constructed Backends
// behind one BatchBackend, swept lane-parallel. Every lane must implement
// Tempered (all registered engines do), which supplies the spin count and
// per-lane temperature control. It satisfies BatchTempered.
type Batch struct {
	name    string
	lanes   []Tempered
	workers int
	spins   int
}

// NewBatchOf lifts a slice of independently constructed backends into a
// BatchBackend. All lanes must implement Tempered, share one engine type
// (Name) and one lattice size. workers bounds how many lanes sweep
// concurrently (0 = GOMAXPROCS); like every worker knob in this repository
// it changes wall-clock time only, never a result — the lanes are
// independent chains.
func NewBatchOf(lanes []Backend, workers int) (*Batch, error) {
	if len(lanes) == 0 {
		return nil, fmt.Errorf("ising: a batch needs at least one lane")
	}
	b := &Batch{workers: workers, lanes: make([]Tempered, len(lanes))}
	for i, l := range lanes {
		rep, ok := l.(Tempered)
		if !ok {
			return nil, fmt.Errorf("ising: batch lane %d (%s) does not implement ising.Tempered", i, l.Name())
		}
		if i == 0 {
			b.name = l.Name()
			b.spins = rep.N()
		} else {
			if l.Name() != b.name {
				return nil, fmt.Errorf("ising: batch lane %d is %s, lane 0 is %s (all lanes must share one engine type)",
					i, l.Name(), b.name)
			}
			if rep.N() != b.spins {
				return nil, fmt.Errorf("ising: batch lane %d has %d spins, lane 0 has %d (all lanes must share one lattice size)",
					i, rep.N(), b.spins)
			}
		}
		b.lanes[i] = rep
	}
	return b, nil
}

// Name returns the underlying engine's name (the batch is visible through
// Lanes, not the name, so tables and results stay comparable with
// single-chain runs of the same engine).
func (b *Batch) Name() string { return b.name }

// Lanes returns the number of chains.
func (b *Batch) Lanes() int { return len(b.lanes) }

// N returns the spins of one lane's lattice.
func (b *Batch) N() int { return b.spins }

// Step returns lane 0's colour-update counter (all lanes advance together).
func (b *Batch) Step() uint64 { return b.lanes[0].Step() }

// Lane returns one lane's backend (for reporting and tests).
func (b *Batch) Lane(i int) Backend { return b.lanes[i] }

// Sweep advances every lane by one whole-lattice update, up to workers lanes
// concurrently.
func (b *Batch) Sweep() {
	workers := b.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(b.lanes) {
		workers = len(b.lanes)
	}
	if workers <= 1 {
		for _, l := range b.lanes {
			l.Sweep()
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, l := range b.lanes {
		wg.Add(1)
		go func(l Tempered) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			l.Sweep()
		}(l)
	}
	wg.Wait()
}

// Magnetizations returns every lane's magnetisation per spin.
func (b *Batch) Magnetizations() []float64 {
	out := make([]float64, len(b.lanes))
	for i, l := range b.lanes {
		out[i] = l.Magnetization()
	}
	return out
}

// Energies returns every lane's energy per spin.
func (b *Batch) Energies() []float64 {
	out := make([]float64, len(b.lanes))
	for i, l := range b.lanes {
		out[i] = l.Energy()
	}
	return out
}

// SetLaneTemperature changes one lane's temperature.
func (b *Batch) SetLaneTemperature(lane int, t float64) {
	b.lanes[lane].SetTemperature(t)
}

// Counts aggregates the work counters of every lane.
func (b *Batch) Counts() metrics.Counts {
	var total metrics.Counts
	for _, l := range b.lanes {
		total.Add(l.Counts())
	}
	return total
}

// LaneView adapts one lane of a batch into a read-only ising.Backend for
// reporting: observables, name, step and counts read through; Sweep panics,
// because a single lane of a batch cannot advance alone — callers that need
// to sweep must drive the batch itself.
func LaneView(b BatchBackend, lane int) Backend { return laneView{b: b, lane: lane} }

type laneView struct {
	b    BatchBackend
	lane int
}

func (v laneView) Name() string { return v.b.Name() }
func (v laneView) Sweep() {
	panic("ising: a lane view is read-only; sweep the batch backend, not a single lane")
}
func (v laneView) Step() uint64           { return v.b.Step() }
func (v laneView) Magnetization() float64 { return v.b.Magnetizations()[v.lane] }
func (v laneView) Energy() float64        { return v.b.Energies()[v.lane] }
func (v laneView) Counts() metrics.Counts { return v.b.Counts() }
