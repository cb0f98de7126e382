// Package ensemble implements a lane-packed many-replica Ising engine: up to
// 64 *independent chains* are stored per uint64 word, one bit-lane per chain,
// so every word holds the same lattice site of 64 different replicas (the
// multi-spin-coding-across-replicas technique of Block, Virnau & Preis,
// arXiv:1007.3726, and the per-device ensembles of Romero et al.,
// arXiv:1906.06297). Where internal/ising/multispin packs 64 *columns* of one
// chain per word, this engine packs 64 *chains* per word — the neighbour
// words of a site carry the neighbours of all lanes at once, so one pass of
// the shared bit-sliced classifier (multispin.DisagreeClasses) updates the
// whole ensemble with no cross-column shifting at all.
//
// Lane L draws through its own Philox key derived from
// ising.LaneSeed(seed, L), consuming exactly the site randoms a standalone
// multispin chain with that seed would. Lane L of the packed engine is
// therefore bit-identical to that standalone chain — the determinism
// contract the lane-equivalence tests assert — and each lane can run at its
// own temperature, which is what lets a whole tempering ladder or
// temperature scan run as one ensemble. The randoms are site-keyed pure
// functions of (seed, step, site), so the chains are deterministic and
// independent of the worker count, exactly like the rest of the repository.
// The hot loop draws each four-site group for all lanes with one
// rng.AcceptLanes call, which compares every lane's randoms with that lane's
// thresholds in vector registers and returns the group's lane accept masks.
// The engine is the multispin backend's batch form: backend.NewBatch builds
// it for a batch or ladder of multispin chains.
package ensemble

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"runtime"
	"sync"

	"tpuising/internal/device/metrics"
	"tpuising/internal/ising"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/rng"
)

// MaxLanes is the number of replicas packed per uint64 word.
const MaxLanes = 64

// Config describes a lane-packed ensemble engine.
type Config struct {
	// Rows and Cols are the per-lane lattice dimensions, with the multispin
	// constraints (even Rows >= 2, Cols a positive multiple of 64) so every
	// lane is exactly a multispin chain.
	Rows, Cols int
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
	// Workers is the number of row-band goroutines per colour update
	// (0 = GOMAXPROCS). It never changes any result.
	Workers int
	// Hot starts every lane from its own random (infinite-temperature)
	// lattice, drawn from rng.New(ising.LaneSeed(Seed, L)) — the same initial
	// configuration the backend factory gives a standalone hot-start chain
	// with that seed.
	Hot bool
}

// Engine is the lane-packed sampler. It satisfies ising.BatchBackend and
// ising.BatchTempered.
type Engine struct {
	rows, cols int
	lanes      int
	laneMask   uint64 // bits 0..lanes-1
	words      []uint64
	kern       *Kernel // per-lane keys, temperatures, thresholds + row update
	step       uint64
	workers    int
	seed       uint64
	halo       []uint64

	// Observable cache: Magnetizations/Energies are O(lanes * N) passes, so
	// consumers that read several observables per step (tempering, the
	// service's per-lane sampling) share one pass per step. A cache is valid
	// while its step stamp matches the engine's (stamps start at ^0 = never).
	magsStep, esStep uint64
	mags, es         []float64
}

// New builds an engine from the config.
func New(cfg Config) (*Engine, error) {
	if cfg.Rows < 2 || cfg.Rows%2 != 0 {
		return nil, fmt.Errorf("ensemble: rows must be even and >= 2, got %d", cfg.Rows)
	}
	if cfg.Cols <= 0 || cfg.Cols%multispin.WordBits != 0 {
		return nil, fmt.Errorf("ensemble: cols must be a positive multiple of %d, got %d", multispin.WordBits, cfg.Cols)
	}
	if cfg.Lanes < 1 || cfg.Lanes > MaxLanes {
		return nil, fmt.Errorf("ensemble: lanes must be 1..%d, got %d", MaxLanes, cfg.Lanes)
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
		return nil, fmt.Errorf("ensemble: %d temperatures for %d lanes", len(temps), cfg.Lanes)
	}
	kern, err := NewKernel(cfg.Seed, temps, false)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		rows: cfg.Rows, cols: cfg.Cols, lanes: cfg.Lanes,
		laneMask: laneMask(cfg.Lanes),
		words:    make([]uint64, cfg.Rows*cfg.Cols),
		kern:     kern,
		workers:  cfg.Workers,
		seed:     cfg.Seed,
		magsStep: ^uint64(0),
		esStep:   ^uint64(0),
	}
	for i := range e.words {
		e.words[i] = ^uint64(0) // cold start: all lanes all spins +1
	}
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

// laneMask returns the word mask selecting the active lane bits.
func laneMask(lanes int) uint64 {
	if lanes >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(lanes)) - 1
}

// Name identifies the engine ("ensemble").
func (e *Engine) Name() string { return "ensemble" }

// Rows returns the per-lane row count.
func (e *Engine) Rows() int { return e.rows }

// Cols returns the per-lane column count.
func (e *Engine) Cols() int { return e.cols }

// Lanes returns the number of replicas.
func (e *Engine) Lanes() int { return e.lanes }

// N returns the spins of one lane's lattice.
func (e *Engine) N() int { return e.rows * e.cols }

// Step returns the number of colour updates performed so far per lane.
func (e *Engine) Step() uint64 { return e.step }

// Seed returns the run seed (lane L's chain seed is ising.LaneSeed(Seed, L)).
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

// Counts reports the attempted spin updates across all lanes in Ops; the
// engine runs on the host, so no device work is modelled.
func (e *Engine) Counts() metrics.Counts {
	return metrics.Counts{Ops: int64(e.step) / 2 * int64(e.N()) * int64(e.lanes)}
}

// Sweep performs one whole-lattice update of every lane: all black sites
// (even row+col parity), then all white sites, consuming two colour-step
// indices like every engine in the repository.
func (e *Engine) Sweep() {
	e.updateColor(0, e.step)
	e.updateColor(1, e.step+1)
	e.step += 2
}

// Run performs n sweeps.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Sweep()
	}
}

// rowWords returns the packed words of one lattice row (cols words, one per
// site).
func (e *Engine) rowWords(r int) []uint64 {
	return e.words[r*e.cols : (r+1)*e.cols]
}

// updateColor performs one Metropolis update of every site of one colour in
// every lane, row-band parallel exactly like multispin: within one colour
// update no two updated sites interact, and a band's boundary rows read
// pre-update snapshots of the neighbouring bands' edge rows, so the chain is
// independent of the band count.
func (e *Engine) updateColor(parity int, step uint64) {
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > e.rows {
		workers = e.rows
	}
	if workers <= 1 {
		e.updateRows(parity, step, 0, e.rows, nil, nil)
		return
	}
	W := e.cols
	rowsPer := (e.rows + workers - 1) / workers
	bands := (e.rows + rowsPer - 1) / rowsPer
	if need := 2 * bands * W; cap(e.halo) < need {
		e.halo = make([]uint64, need)
	}
	type band struct {
		r0, r1       int
		north, south []uint64
	}
	plan := make([]band, 0, bands)
	for r0 := 0; r0 < e.rows; r0 += rowsPer {
		r1 := r0 + rowsPer
		if r1 > e.rows {
			r1 = e.rows
		}
		i := len(plan)
		north := e.halo[(2*i)*W : (2*i+1)*W]
		south := e.halo[(2*i+1)*W : (2*i+2)*W]
		copy(north, e.rowWords((r0-1+e.rows)%e.rows))
		copy(south, e.rowWords(r1%e.rows))
		plan = append(plan, band{r0: r0, r1: r1, north: north, south: south})
	}
	var wg sync.WaitGroup
	for _, b := range plan {
		wg.Add(1)
		go func(b band) {
			defer wg.Done()
			e.updateRows(parity, step, b.r0, b.r1, b.north, b.south)
		}(b)
	}
	wg.Wait()
}

// updateRows updates the active sites of rows [r0, r1), substituting the
// pre-update halo snapshots at the band boundaries (every neighbour bit
// consumed belongs to the inactive colour, so snapshots and live reads
// agree). The wrap words row[cols-1] and row[0] are snapshotted per row for
// the same reason: whichever of the two the active colour consumes is
// inactive and never written within the call.
func (e *Engine) updateRows(parity int, step uint64, r0, r1 int, northHalo, southHalo []uint64) {
	for r := r0; r < r1; r++ {
		row := e.rowWords(r)
		north := e.rowWords((r - 1 + e.rows) % e.rows)
		if r == r0 && northHalo != nil {
			north = northHalo
		}
		south := e.rowWords((r + 1) % e.rows)
		if r == r1-1 && southHalo != nil {
			south = southHalo
		}
		e.kern.UpdateRow(row, north, south, row[e.cols-1], row[0], r, 0, parity, step, nil)
	}
}

// refreshMags recomputes the per-lane magnetisations at the current step.
func (e *Engine) refreshMags() {
	if e.mags != nil && e.magsStep == e.step {
		return
	}
	if e.mags == nil {
		e.mags = make([]float64, e.lanes)
	}
	up := make([]int64, e.lanes)
	for _, w := range e.words {
		w &= e.laneMask
		for w != 0 {
			up[bits.TrailingZeros64(w)]++
			w &= w - 1
		}
	}
	n := int64(e.N())
	for l := range e.mags {
		e.mags[l] = float64(2*up[l]-n) / float64(n)
	}
	e.magsStep = e.step
}

// Magnetizations returns the magnetisation per spin of every lane.
func (e *Engine) Magnetizations() []float64 {
	e.refreshMags()
	return append([]float64(nil), e.mags...)
}

// refreshEnergies recomputes the per-lane energies at the current step: each
// site's east and south bonds are compared bitwise and the per-lane
// disagreement bits accumulated.
func (e *Engine) refreshEnergies() {
	if e.es != nil && e.esStep == e.step {
		return
	}
	if e.es == nil {
		e.es = make([]float64, e.lanes)
	}
	diff := make([]int64, e.lanes)
	for r := 0; r < e.rows; r++ {
		row := e.rowWords(r)
		south := e.rowWords((r + 1) % e.rows)
		for c := 0; c < e.cols; c++ {
			ce := c + 1
			if ce == e.cols {
				ce = 0
			}
			de := (row[c] ^ row[ce]) & e.laneMask
			ds := (row[c] ^ south[c]) & e.laneMask
			for w := de; w != 0; w &= w - 1 {
				diff[bits.TrailingZeros64(w)]++
			}
			for w := ds; w != 0; w &= w - 1 {
				diff[bits.TrailingZeros64(w)]++
			}
		}
	}
	n := int64(e.N())
	for l := range e.es {
		e.es[l] = -ising.J * float64(2*n-2*diff[l]) / float64(n)
	}
	e.esStep = e.step
}

// Energies returns the energy per spin of every lane.
func (e *Engine) Energies() []float64 {
	e.refreshEnergies()
	return append([]float64(nil), e.es...)
}

// LaneSpin returns lane L's spin at (row, col) as +-1 (no wrapping).
func (e *Engine) LaneSpin(lane, row, col int) int8 {
	if e.words[row*e.cols+col]>>uint(lane)&1 == 1 {
		return 1
	}
	return -1
}

// LaneLattice extracts one lane's configuration as an ising.Lattice.
func (e *Engine) LaneLattice(lane int) *ising.Lattice {
	l := ising.NewLattice(e.rows, e.cols)
	for i, w := range e.words {
		if w>>uint(lane)&1 == 0 {
			l.Spins[i] = -1
		}
	}
	return l
}

// SetLaneLattice loads one lane's configuration from an ising.Lattice.
func (e *Engine) SetLaneLattice(lane int, l *ising.Lattice) error {
	if l.Rows != e.rows || l.Cols != e.cols {
		return fmt.Errorf("ensemble: lattice is %dx%d, engine is %dx%d", l.Rows, l.Cols, e.rows, e.cols)
	}
	if lane < 0 || lane >= e.lanes {
		return fmt.Errorf("ensemble: lane %d out of range (engine has %d)", lane, e.lanes)
	}
	bit := uint64(1) << uint(lane)
	for i, s := range l.Spins {
		if s == 1 {
			e.words[i] |= bit
		} else {
			e.words[i] &^= bit
		}
	}
	// The state changed without a step advance: drop the observable caches.
	e.mags, e.es = nil, nil
	return nil
}

// Hash returns an FNV-1a hash of the packed configuration (active lanes
// masked), used by the determinism tests to compare whole ensembles cheaply.
func (e *Engine) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range e.words {
		v &= e.laneMask
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
