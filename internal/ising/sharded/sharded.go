package sharded

import (
	"cmp"
	"fmt"
	"math/bits"

	"tpuising/internal/ising"
	"tpuising/internal/ising/multispin"
)

// WordBits is the number of lattice columns packed per machine word.
const WordBits = multispin.WordBits

// Config describes a sharded multispin engine.
type Config struct {
	// Name is the engine's name in Name, snapshots and validation errors
	// ("" = "sharded"). The registry serves its multispin backends as
	// one-shard engines named "multispin".
	Name string
	// Rows and Cols are the global lattice dimensions. Rows must be even and
	// divisible by GridR; Cols must be divisible by GridC with every shard at
	// least one 64-column word wide.
	Rows, Cols int
	// GridR and GridC are the shard grid dimensions: GridR shards along the
	// row (north-south) axis, GridC along the column (east-west) axis,
	// GridR*GridC mesh cores in total (0 means 1).
	GridR, GridC int
	// Temperature is in units of J/kB (0 = the critical temperature).
	Temperature float64
	// Seed seeds the site-keyed Philox stream shared by all shards.
	Seed uint64
	// Workers is the number of row-band goroutines of a one-shard grid
	// (0 = GOMAXPROCS); a pod grid runs one goroutine per shard. It never
	// changes a result.
	Workers int
	// Initial is an optional starting configuration; cold (all +1) when nil.
	Initial *ising.Lattice
}

// Engine is the mesh-sharded bit-packed sampler: the pod Driver over
// spin-packed words, with the multispin row kernel. It satisfies
// ising.Backend.
type Engine struct {
	*Driver
	name        string // Config.Name, "sharded" by default
	kern        multispin.Kernel
	scratch     []multispin.Scratch // per-worker draw scratch of the block kernel
	temperature float64
	thresholds  multispin.ThresholdCache // memoized acceptance pairs for SetTemperature

	// Observable caches: SumSpins and Energy each cost a pass over the
	// lattice, and a job reads both at every sample and again for its result
	// at the last sample's step. A cache is valid while its step stamp
	// matches the engine's (^0 = never); SetLattice and Restore change the
	// spins without a step advance, so they drop both.
	sumStep, energyStep uint64
	sum                 int64
	energy              float64
}

// New builds an engine from the config.
func New(cfg Config) (*Engine, error) {
	e := &Engine{name: cmp.Or(cfg.Name, "sharded")}
	e.dropObservables()
	d, err := NewDriver(Geometry{
		Engine: e.name, Rows: cfg.Rows, Cols: cfg.Cols, GridR: cfg.GridR, GridC: cfg.GridC,
		SiteBits: 1, ColGroup: WordBits, Workers: cfg.Workers,
	}, e.updateBlock)
	if err != nil {
		return nil, err
	}
	temp := cfg.Temperature
	if temp == 0 {
		temp = ising.CriticalTemperature()
	}
	if temp <= 0 {
		return nil, fmt.Errorf("%s: temperature must be positive, got %g", e.name, temp)
	}
	e.Driver = d
	e.temperature = temp
	e.kern = multispin.NewKernel(temp, cfg.Seed, false)
	e.scratch = make([]multispin.Scratch, d.Workers())
	if cfg.Initial != nil {
		if err := e.SetLattice(cfg.Initial); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// updateBlock is the engine's BlockKernel: the shared multispin kernel's
// block form, with the worker's own draw scratch.
func (e *Engine) updateBlock(worker int, b *multispin.Block, parity int, step uint64) {
	e.kern.UpdateBlock(b, parity, step, &e.scratch[worker])
}

// Name identifies the engine: Config.Name ("sharded" by default).
func (e *Engine) Name() string { return e.name }

// Temperature returns the current temperature.
func (e *Engine) Temperature() float64 { return e.temperature }

// SetTemperature changes the simulation temperature; the chain continues from
// the current configuration. It changes no spin, so the observable caches
// stay valid.
func (e *Engine) SetTemperature(t float64) {
	if t <= 0 {
		panic(e.name + ": temperature must be positive")
	}
	e.kern.SetThresholds(e.thresholds.For(t))
	e.temperature = t
}

// SumSpins returns the total spin.
func (e *Engine) SumSpins() int64 {
	if e.sumStep == e.Step() {
		return e.sum
	}
	ones := 0
	e.EachRow(func(_, _ int, words []uint64) {
		for _, v := range words {
			ones += bits.OnesCount64(v)
		}
	})
	e.sum, e.sumStep = int64(2*ones)-int64(e.N()), e.Step()
	return e.sum
}

// Magnetization returns the magnetisation per spin.
func (e *Engine) Magnetization() float64 {
	return float64(e.SumSpins()) / float64(e.N())
}

// Energy returns the energy per spin: every site's east and south bonds are
// compared bitwise (popcount of the disagreement words counts the frustrated
// bonds), with the bonds that cross a shard boundary read from the
// neighbour shard.
func (e *Engine) Energy() float64 {
	if e.energyStep == e.Step() {
		return e.energy
	}
	diff := 0
	e.EachBond(func(row, south []uint64, eastWord uint64) {
		for w, v := range row {
			next := eastWord
			if w+1 < len(row) {
				next = row[w+1]
			}
			east := (v >> 1) | (next << 63)
			diff += bits.OnesCount64(v ^ east)
			diff += bits.OnesCount64(v ^ south[w])
		}
	})
	n := e.N()
	e.energy, e.energyStep = -ising.J*float64(2*n-2*diff)/float64(n), e.Step()
	return e.energy
}

// Lattice gathers the sharded configuration into one global ising.Lattice.
func (e *Engine) Lattice() *ising.Lattice {
	l := ising.NewLattice(e.Rows(), e.Cols())
	e.EachRow(func(r, c0 int, words []uint64) {
		base := r*e.Cols() + c0
		for c := 0; c < len(words)*WordBits; c++ {
			if words[c/WordBits]>>(uint(c)%WordBits)&1 == 0 {
				l.Spins[base+c] = -1
			}
		}
	})
	return l
}

// SetLattice scatters a global configuration over the shards.
func (e *Engine) SetLattice(l *ising.Lattice) error {
	if l.Rows != e.Rows() || l.Cols != e.Cols() {
		return fmt.Errorf("%s: lattice is %dx%d, engine is %dx%d", e.name, l.Rows, l.Cols, e.Rows(), e.Cols())
	}
	e.EachRow(func(r, c0 int, words []uint64) {
		clear(words)
		base := r*e.Cols() + c0
		for c := 0; c < len(words)*WordBits; c++ {
			if l.Spins[base+c] == 1 {
				words[c/WordBits] |= 1 << (uint(c) % WordBits)
			}
		}
	})
	e.dropObservables()
	return nil
}

// dropObservables empties the observable caches after a change of spins
// that does not advance the step.
func (e *Engine) dropObservables() { e.sumStep, e.energyStep = ^uint64(0), ^uint64(0) }

// Spin returns the spin at global (row, col) as +-1 (no wrapping).
func (e *Engine) Spin(row, col int) int8 {
	words, c := e.Segment(row, col)
	if words[c/WordBits]>>(uint(c)%WordBits)&1 == 1 {
		return 1
	}
	return -1
}

// Hash returns an FNV-1a hash of the global packed configuration in
// whole-lattice word order, so it is the same for every shard grid holding
// the same configuration.
func (e *Engine) Hash() uint64 { return e.HashWords(^uint64(0)) }
