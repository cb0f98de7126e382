// Package checkerboard implements the plain CPU checkerboard (red/black)
// Metropolis sweep for the 2-D Ising model, the algorithm of Section 3.1 of
// the paper.  Fixing all spins of one colour, the spins of the other colour
// do not interact and can be updated simultaneously; alternating the two
// colours gives a Markov chain with the Boltzmann stationary distribution.
//
// Two variants are provided:
//
//   - Sweep / UpdateColor: a serial reference whose floating-point arithmetic
//     and site-keyed random numbers are bit-identical to the TPU tensor
//     kernels in internal/ising/tpu, so the tensor implementations can be
//     validated spin-for-spin against it.
//   - ParallelSweep: a multi-goroutine version, the row-band sweep behind
//     the gpusim "CPU baseline" engine.
package checkerboard

import (
	"math"
	"runtime"
	"sync"

	"tpuising/internal/device/metrics"
	"tpuising/internal/ising"
	"tpuising/internal/rng"
)

// Color selects which checkerboard colour is updated.
type Color int

const (
	// Black sites have even (row+col) parity.
	Black Color = iota
	// White sites have odd (row+col) parity.
	White
)

// String returns the colour name.
func (c Color) String() string {
	if c == Black {
		return "black"
	}
	return "white"
}

// Parity returns the (row+col) % 2 value of the colour.
func (c Color) Parity() int { return int(c) }

// UpdateColor performs one Metropolis update of every site of the given
// colour, using the site-keyed generator: the uniform for lattice site
// (r, c) at this update is sk.Uniform(step, rowOff+r, colOff+c).  The offsets
// give the lattice's position in a larger global lattice (0 for a standalone
// lattice), which is what makes a domain-decomposed run identical to a
// single-domain run.
//
// The arithmetic intentionally mirrors the tensor kernels: the acceptance
// ratio is computed as exp(float32(nn*s) * float32(-2*beta)) and compared in
// float32 against the uniform.
func UpdateColor(l *ising.Lattice, color Color, beta float64, sk *rng.SiteKeyed, step uint64, rowOff, colOff int) {
	factor := float32(-2 * beta * ising.J)
	for r := 0; r < l.Rows; r++ {
		// Within a row, sites of one colour occupy every other column.
		start := (int(color) - r%2 + 2) % 2
		for c := start; c < l.Cols; c += 2 {
			s := float32(l.At(r, c))
			nn := float32(l.NeighborSum(r, c))
			acc := float32(math.Exp(float64(nn * s * factor)))
			u := sk.Uniform(step, rowOff+r, colOff+c)
			if u < acc {
				l.Flip(r, c)
			}
		}
	}
}

// Sweep performs one whole-lattice update: all black sites, then all white
// sites, consuming two step indices (step for black, step+1 for white). It
// returns the next unused step index.
func Sweep(l *ising.Lattice, beta float64, sk *rng.SiteKeyed, step uint64) uint64 {
	UpdateColor(l, Black, beta, sk, step, 0, 0)
	UpdateColor(l, White, beta, sk, step+1, 0, 0)
	return step + 2
}

// Sampler wraps a lattice with the checkerboard chain state.
type Sampler struct {
	Lattice *ising.Lattice
	Beta    float64

	temperature float64 // the T that Beta was derived from, kept for snapshots
	sk          *rng.SiteKeyed
	step        uint64
}

// NewSampler returns a checkerboard sampler at temperature T.
func NewSampler(l *ising.Lattice, temperature float64, seed uint64) *Sampler {
	return &Sampler{Lattice: l, Beta: ising.Beta(temperature), temperature: temperature, sk: rng.NewSiteKeyed(seed)}
}

// Sweep advances the chain by one whole-lattice update.
func (s *Sampler) Sweep() {
	s.step = Sweep(s.Lattice, s.Beta, s.sk, s.step)
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

// Name identifies the engine; the Sampler is the serial reference.
func (s *Sampler) Name() string { return "checkerboard" }

// Magnetization returns the magnetisation per spin.
func (s *Sampler) Magnetization() float64 { return s.Lattice.Magnetization() }

// Energy returns the energy per spin.
func (s *Sampler) Energy() float64 { return s.Lattice.Energy() }

// Counts reports the attempted spin updates in Ops; the sampler runs on the
// host, so no device work is modelled.
func (s *Sampler) Counts() metrics.Counts {
	return metrics.Counts{Ops: int64(s.step) * int64(s.Lattice.N()) / 2}
}

// ParallelSweep performs one whole-lattice update using worker goroutines
// that partition the rows; it is the multi-core CPU baseline. Within one
// colour update no two updated sites interact, so row partitioning is safe.
// It uses the same site-keyed random numbers as Sweep and therefore produces
// an identical chain.
func ParallelSweep(l *ising.Lattice, beta float64, sk *rng.SiteKeyed, step uint64, workers int) uint64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > l.Rows {
		workers = l.Rows
	}
	for _, color := range []Color{Black, White} {
		var wg sync.WaitGroup
		rowsPer := (l.Rows + workers - 1) / workers
		for w := 0; w < workers; w++ {
			r0 := w * rowsPer
			r1 := r0 + rowsPer
			if r1 > l.Rows {
				r1 = l.Rows
			}
			if r0 >= r1 {
				break
			}
			wg.Add(1)
			go func(r0, r1 int, step uint64) {
				defer wg.Done()
				updateColorRows(l, color, beta, sk, step, r0, r1)
			}(r0, r1, step)
		}
		wg.Wait()
		step++
	}
	return step
}

// updateColorRows updates the sites of one colour in rows [r0, r1).
func updateColorRows(l *ising.Lattice, color Color, beta float64, sk *rng.SiteKeyed, step uint64, r0, r1 int) {
	factor := float32(-2 * beta * ising.J)
	for r := r0; r < r1; r++ {
		start := (int(color) - r%2 + 2) % 2
		for c := start; c < l.Cols; c += 2 {
			s := float32(l.At(r, c))
			nn := float32(l.NeighborSum(r, c))
			acc := float32(math.Exp(float64(nn * s * factor)))
			if sk.Uniform(step, r, c) < acc {
				l.Flip(r, c)
			}
		}
	}
}
