// Package shardedensemble composes the repository's two scaling axes into
// the paper's full execution shape: a GridR x GridC pod mesh of shards
// (internal/ising/sharded's spatial decomposition) where every shard advances
// up to 64 lane-packed replica lattices at once (internal/ising/ensemble's
// batch axis). Each shard owns a contiguous block of the per-lane lattice
// stored as lane-packed words — one uint64 per site, one bit-lane per
// replica — and each checkerboard half-sweep exchanges four halos of
// lane-packed words with its mesh neighbours over the simulated interconnect
// (pod.Replica.ShiftExchangeWords): its boundary rows north and south, its
// boundary site-word columns east and west. A word moved over a link carries
// that boundary site for all 64 replicas at once, which is exactly how the
// paper amortises halo latency over its per-core batch dimension.
//
// The composition is an execution strategy, never a physics change. Shards
// call the shared ensemble.Kernel with global row indices and global random-
// group offsets, so every site of every lane draws exactly the randoms the
// one-shard grid draws — lane L of a sharded ensemble is bit-identical to
// lane L of a one-shard ensemble with the same seed (and hence to a
// standalone multispin chain seeded ising.LaneSeed(seed, L)), whatever the
// shard grid. The lane-equivalence tests assert this per lane for multiple
// grids.
//
// The engine is the batch form of both bit-packed backends. On one shard,
// the single core, it is the multispin backend's batch engine: backend.NewBatch
// builds it, named "ensemble", for a batch or ladder of 32 to 64 multispin
// chains, and it exchanges no halos. On sharded's grid it is the sharded
// backend's batch engine for a batch or ladder of 16 to 64 lanes. A single
// chain, and a batch of fewer lanes, runs on internal/ising/sharded's
// one-bit-per-site words, one chain per lane: this engine sweeps a whole
// 64-lane word per site whatever the lane count.
//
// The per-lane observables are counted bit-sliced, as multi-spin coding
// counts: Magnetizations and Energies each make one pass over the site
// words through a vertical counter (laneCounter) whose plane k holds bit k
// of every lane's count. Words enter seven register planes through full
// adders and a ripple of ANDs and XORs, for all 64 lanes at once; a block
// of 127 words (63 sites for the energy, two bond words each) is then added
// into wide planes, and the lane counts are read out once per pass. The
// counts are the same integers a bit-by-bit count gives.
package shardedensemble

import (
	"cmp"
	"fmt"

	"tpuising/internal/ising"
	"tpuising/internal/ising/ensemble"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/ising/sharded"
	"tpuising/internal/rng"
)

// MaxLanes is the number of replicas packed per uint64 word.
const MaxLanes = ensemble.MaxLanes

// groupCols is the column span of one four-site random group of a
// checkerboard colour (four active sites, stride two). Shard widths must be
// multiples of it so groups never straddle a shard boundary — the constraint
// that lets a shard draw its randoms with whole-group batched Philox calls
// at a global group offset.
const groupCols = 8

// Config describes a sharded lane-packed ensemble.
type Config struct {
	// Name is the engine's name in Name and its validation errors ("" =
	// "sharded-ensemble", whose errors read "shardedensemble"). The registry
	// names the engines of its lane-packed multispin batches "ensemble".
	Name string
	// Rows and Cols are the per-lane lattice dimensions, with the ensemble
	// constraints (even Rows >= 2, Cols a positive multiple of 64). Rows must
	// divide over GridR; Cols over GridC with every shard a multiple of 8
	// columns wide (so four-site random groups never straddle shards).
	Rows, Cols int
	// GridR and GridC are the shard grid dimensions: GridR shards along the
	// row (north-south) axis, GridC along the column (east-west) axis, one
	// simulated mesh core per shard (0 means 1).
	GridR, GridC int
	// Lanes is the number of independent replicas, 1 to 64.
	Lanes int
	// Temperature is the shared lane temperature in J/kB (0 = the critical
	// temperature). Ignored when Temperatures is set.
	Temperature float64
	// Temperatures, when non-empty, gives every lane its own temperature
	// (len == Lanes): lane L runs at Temperatures[L]. This is what lets a
	// tempering ladder or a whole temperature scan run as one ensemble.
	Temperatures []float64
	// Seed is the run seed; lane L's chain is seeded ising.LaneSeed(Seed, L).
	Seed uint64
	// Workers is the number of row-band goroutines of a one-shard grid
	// (0 = GOMAXPROCS); a pod grid runs one goroutine per shard. It never
	// changes a result.
	Workers int
	// Hot starts every lane from its own random (infinite-temperature)
	// lattice drawn from rng.New(ising.LaneSeed(Seed, L)) — the same initial
	// configuration the backend factory gives a standalone hot-start chain
	// with that seed.
	Hot bool
}

// Engine is the mesh-sharded lane-packed sampler: the pod sharded.Driver
// over lane-packed words, with the ensemble row kernel. It satisfies
// ising.BatchBackend and ising.BatchTempered.
type Engine struct {
	*sharded.Driver
	name   string
	prefix string // validation error prefix
	lanes  int
	kern   *ensemble.Kernel
	seed   uint64

	// Observable caches: Magnetizations and Energies each cost one pass over
	// the lattice's N site words, so consumers that read several observables
	// per step (tempering, the service's per-lane sampling) share one pass
	// per step. A cache is valid while its step stamp matches the engine's
	// (stamps start at ^0 = never).
	magsStep, esStep uint64
	mags, es         []float64
	count            laneCounter // both passes' bit-sliced per-lane counter
}

// New builds an engine from the config.
func New(cfg Config) (*Engine, error) {
	e := &Engine{
		name: cmp.Or(cfg.Name, "sharded-ensemble"), prefix: cmp.Or(cfg.Name, "shardedensemble"),
		lanes: cfg.Lanes, seed: cfg.Seed, magsStep: ^uint64(0), esStep: ^uint64(0),
	}
	d, err := sharded.NewDriver(sharded.Geometry{
		Engine: e.prefix, Rows: cfg.Rows, Cols: cfg.Cols, GridR: cfg.GridR, GridC: cfg.GridC,
		SiteBits: MaxLanes, ColGroup: groupCols, Lanes: cfg.Lanes, Workers: cfg.Workers,
	}, e.updateBlock)
	if err != nil {
		return nil, err
	}
	if cfg.Lanes < 1 || cfg.Lanes > MaxLanes {
		return nil, fmt.Errorf("%s: lanes must be 1..%d, got %d", e.prefix, MaxLanes, cfg.Lanes)
	}
	temps := cfg.Temperatures
	if len(temps) == 0 {
		t := cfg.Temperature
		if t == 0 {
			t = ising.CriticalTemperature()
		}
		temps = make([]float64, cfg.Lanes)
		for i := range temps {
			temps[i] = t
		}
	}
	if len(temps) != cfg.Lanes {
		return nil, fmt.Errorf("%s: %d temperatures for %d lanes", e.prefix, len(temps), cfg.Lanes)
	}
	if e.kern, err = ensemble.NewKernel(cfg.Seed, temps, false); err != nil {
		return nil, err
	}
	e.Driver = d
	if cfg.Hot {
		for l := 0; l < e.lanes; l++ {
			lat := ising.NewRandomLattice(cfg.Rows, cfg.Cols, rng.New(ising.LaneSeed(cfg.Seed, l)))
			if err := e.SetLaneLattice(l, lat); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

// updateBlock is the engine's BlockKernel: the shared lane-packed kernel
// over the block's rows in turn, with each row's global row and the block's
// global random-group offset, so the randoms are the same site for site on
// every grid. A row's west and east neighbours are its own end words on a
// single core and the received halo words, one per row, on a pod grid.
func (e *Engine) updateBlock(_ int, b *multispin.Block, parity int, step uint64) {
	group := b.Col / groupCols
	for r := 0; r < b.Rows; r++ {
		row, north, south := b.RowAt(r)
		west, east := row[len(row)-1], row[0]
		if b.West != nil {
			west, east = b.West[r], b.East[r]
		}
		e.kern.UpdateRow(row, north, south, west, east, b.Row+r, group, parity, step, nil)
	}
}

// Name identifies the engine: Config.Name, "sharded-ensemble" by default
// (the engine a lane-packed sharded batch reports) and "ensemble" for the
// multispin backend's lane-packed batches.
func (e *Engine) Name() string { return e.name }

// Lanes returns the number of replicas.
func (e *Engine) Lanes() int { return e.lanes }

// Seed returns the run seed.
func (e *Engine) Seed() uint64 { return e.seed }

// LaneTemperature returns one lane's current temperature.
func (e *Engine) LaneTemperature(lane int) float64 { return e.kern.LaneTemperature(lane) }

// SetLaneTemperature changes one lane's temperature; the lane's chain
// continues from its current configuration. The kernel memoizes the
// acceptance thresholds per rung, so the tempering swap path pays no
// math.Exp after a rung's first visit.
func (e *Engine) SetLaneTemperature(lane int, t float64) {
	e.kern.SetLaneTemperature(lane, t)
}

// refreshMags recomputes the per-lane magnetisations at the current step.
func (e *Engine) refreshMags() {
	if e.mags != nil && e.magsStep == e.Step() {
		return
	}
	if e.mags == nil {
		e.mags = make([]float64, e.lanes)
	}
	e.EachRow(func(_, _ int, words []uint64) { e.count.addOnes(words) })
	up := e.count.counts(e.kern.LaneMask())
	n := int64(e.N())
	for l := range e.mags {
		e.mags[l] = float64(2*up[l]-n) / float64(n)
	}
	e.magsStep = e.Step()
}

// Magnetizations returns the magnetisation per spin of every lane.
func (e *Engine) Magnetizations() []float64 {
	e.refreshMags()
	return append([]float64(nil), e.mags...)
}

// refreshEnergies recomputes the per-lane energies: each site's east and
// south bonds are compared wordwise and the per-lane disagreement bits
// counted, with the bonds that cross a shard boundary read from the
// neighbour shard.
func (e *Engine) refreshEnergies() {
	if e.es != nil && e.esStep == e.Step() {
		return
	}
	if e.es == nil {
		e.es = make([]float64, e.lanes)
	}
	e.EachBond(e.count.addBonds)
	diff := e.count.counts(e.kern.LaneMask())
	n := int64(e.N())
	for l := range e.es {
		e.es[l] = -ising.J * float64(2*n-2*diff[l]) / float64(n)
	}
	e.esStep = e.Step()
}

// Energies returns the energy per spin of every lane.
func (e *Engine) Energies() []float64 {
	e.refreshEnergies()
	return append([]float64(nil), e.es...)
}

// LaneLattice gathers one lane's configuration as an ising.Lattice.
func (e *Engine) LaneLattice(lane int) *ising.Lattice {
	l := ising.NewLattice(e.Rows(), e.Cols())
	e.EachRow(func(r, c0 int, words []uint64) {
		base := r*e.Cols() + c0
		for c, w := range words {
			if w>>uint(lane)&1 == 0 {
				l.Spins[base+c] = -1
			}
		}
	})
	return l
}

// SetLaneLattice scatters one lane's configuration over the shards.
func (e *Engine) SetLaneLattice(lane int, l *ising.Lattice) error {
	if l.Rows != e.Rows() || l.Cols != e.Cols() {
		return fmt.Errorf("%s: lattice is %dx%d, engine is %dx%d", e.prefix, l.Rows, l.Cols, e.Rows(), e.Cols())
	}
	if lane < 0 || lane >= e.lanes {
		return fmt.Errorf("%s: lane %d out of range (engine has %d)", e.prefix, lane, e.lanes)
	}
	bit := uint64(1) << uint(lane)
	e.EachRow(func(r, c0 int, words []uint64) {
		base := r*e.Cols() + c0
		for c := range words {
			if l.Spins[base+c] == 1 {
				words[c] |= bit
			} else {
				words[c] &^= bit
			}
		}
	})
	// The state changed without a step advance: drop the observable caches.
	e.mags, e.es = nil, nil
	return nil
}

// Hash returns an FNV-1a hash of the lane-packed configuration in global
// row-major site order (active lanes masked) — the same for every shard grid
// holding the same configuration.
func (e *Engine) Hash() uint64 { return e.HashWords(e.kern.LaneMask()) }
