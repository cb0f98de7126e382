// Package multispin implements a bit-packed multi-spin-coded checkerboard
// Metropolis engine for the 2-D Ising model: 64 spins are stored per uint64
// word (bit 1 = spin up) and the four-neighbour interaction of all 64 lattice
// columns of a word is evaluated at once with shifts, XORs and a bit-sliced
// population count, the standard multi-spin coding technique of the
// GPU implementations the paper compares against (Preis et al., Block et
// al., Romero & Fatica).
//
// Because a spin and its neighbour agree exactly when their bits are equal,
// the local field enters only through the number of disagreeing neighbours
// d in 0..4: the Metropolis acceptance probability exp(-2*beta*s*nn) with
// s*nn = 4 - 2d is 1 for d >= 2 and exp(-4*beta), exp(-8*beta) for d = 1, 0.
// The two non-trivial probabilities are precomputed as 32-bit integer
// thresholds, so the accept/reject of a site is a single unsigned compare of
// a Philox random word -- no floating point in the hot loop. The optimized
// row kernel does not even see the random words: rng.AcceptRow runs that
// compare in the registers where each Philox block is generated (AVX2 on
// amd64 CPUs that have it) and hands back one accept bit per site.
//
// Randomness is site-keyed like the rest of the repository: the random for
// lattice site (r, c) at colour-step t is a pure function of (seed, t, r, c),
// so the chain is deterministic and independent of the number of worker
// goroutines. One Philox block yields the randoms of four neighbouring
// same-colour sites, amortising the generator fourfold over the scalar
// engines. A cheaper shared-random variant (one random per 64-column word,
// Config.SharedRandom) trades per-site independence for another large factor,
// at the cost of weak intra-word correlations.
package multispin

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"runtime"
	"sync"

	"tpuising/internal/device/metrics"
	"tpuising/internal/ising"
	"tpuising/internal/rng"
)

// WordBits is the number of lattice columns packed per machine word.
const WordBits = 64

// evenMask selects the even bit positions (even lattice columns) of a word.
const evenMask = 0x5555555555555555

// Config describes a multispin engine.
type Config struct {
	// Rows and Cols are the lattice dimensions. Rows must be even and at
	// least 2; Cols must be a positive multiple of 64 (the word width).
	Rows, Cols int
	// Temperature is in units of J/kB.
	Temperature float64
	// Seed seeds the site-keyed Philox stream.
	Seed uint64
	// SharedRandom selects the cheap variant that draws one random per
	// 64-column word instead of one per site.
	SharedRandom bool
	// Workers is the number of row-band goroutines per colour update
	// (0 = GOMAXPROCS).
	Workers int
	// Initial is an optional starting configuration; a cold (all +1) lattice
	// is used when nil.
	Initial *ising.Lattice
}

// Engine is the bit-packed sampler. It satisfies ising.Backend.
type Engine struct {
	rows, cols, words int
	spins             []uint64 // rows*words, row-major; bit i of word (r,w) = spin (r, w*64+i)
	temperature       float64
	kern              Kernel // thresholds, Philox key and random-sharing mode
	step              uint64
	workers           int
	halo              []uint64       // scratch for the per-band boundary-row snapshots
	scratches         []Scratch      // per-band draw scratch buffers for the batched kernel
	thresholds        ThresholdCache // memoized acceptance pairs for SetTemperature
}

// New builds an engine from the config.
func New(cfg Config) (*Engine, error) {
	if cfg.Rows < 2 || cfg.Rows%2 != 0 {
		return nil, fmt.Errorf("multispin: rows must be even and >= 2, got %d", cfg.Rows)
	}
	if cfg.Cols <= 0 || cfg.Cols%WordBits != 0 {
		return nil, fmt.Errorf("multispin: cols must be a positive multiple of %d, got %d", WordBits, cfg.Cols)
	}
	temp := cfg.Temperature
	if temp == 0 {
		temp = ising.CriticalTemperature()
	}
	if temp <= 0 {
		return nil, fmt.Errorf("multispin: temperature must be positive, got %g", temp)
	}
	e := &Engine{
		rows:        cfg.Rows,
		cols:        cfg.Cols,
		words:       cfg.Cols / WordBits,
		workers:     cfg.Workers,
		temperature: temp,
		kern:        NewKernel(temp, cfg.Seed, cfg.SharedRandom),
		spins:       make([]uint64, cfg.Rows*cfg.Cols/WordBits),
	}
	if cfg.Initial != nil {
		if err := e.SetLattice(cfg.Initial); err != nil {
			return nil, err
		}
	} else {
		for i := range e.spins {
			e.spins[i] = ^uint64(0) // cold start: all spins +1
		}
	}
	return e, nil
}

// SetTemperature changes the simulation temperature; the chain continues from
// the current configuration.
func (e *Engine) SetTemperature(t float64) {
	if t <= 0 {
		panic("multispin: temperature must be positive")
	}
	e.temperature = t
	// Memoized: a tempering ladder toggles a replica between the same few
	// rungs for the whole run, so the swap path pays math.Exp once per rung.
	e.kern.SetThresholds(e.thresholds.For(t))
}

// acceptThreshold maps an acceptance probability to the 33-bit integer
// threshold t such that a 32-bit uniform u accepts exactly when u < t.
func acceptThreshold(p float64) uint64 {
	if p >= 1 {
		return 1 << 32
	}
	if p <= 0 {
		return 0
	}
	return uint64(p * (1 << 32))
}

// Name identifies the engine ("multispin" or "multispin-shared").
func (e *Engine) Name() string {
	if e.kern.Shared {
		return "multispin-shared"
	}
	return "multispin"
}

// Rows returns the number of lattice rows.
func (e *Engine) Rows() int { return e.rows }

// Cols returns the number of lattice columns.
func (e *Engine) Cols() int { return e.cols }

// N returns the number of spins.
func (e *Engine) N() int { return e.rows * e.cols }

// Step returns the number of colour updates performed so far.
func (e *Engine) Step() uint64 { return e.step }

// Temperature returns the current temperature.
func (e *Engine) Temperature() float64 { return e.temperature }

// Sweep performs one whole-lattice update: all black sites (even row+col
// parity), then all white sites, consuming two colour-step indices.
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

// Counts reports the attempted spin updates (one per site per sweep) in Ops;
// the engine runs on the host, so no device work is modelled.
func (e *Engine) Counts() metrics.Counts {
	return metrics.Counts{Ops: int64(e.step) * int64(e.N()) / 2}
}

// updateColor performs one Metropolis update of every site of one colour
// (parity 0 = black, 1 = white) at the given colour-step index.
func (e *Engine) updateColor(parity int, step uint64) {
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > e.rows {
		workers = e.rows
	}
	if workers <= 1 {
		if len(e.scratches) == 0 {
			e.scratches = make([]Scratch, 1)
		}
		e.updateColorRows(parity, step, 0, e.rows, nil, nil, &e.scratches[0])
		return
	}

	// Row-band parallelism: within one colour update no two updated sites
	// interact, so bands of rows are independent. A band's first and last
	// rows read neighbour rows owned by adjacent bands; those rows share
	// words with concurrently written same-colour bits, so each band gets a
	// pre-update snapshot of its two boundary neighbour rows (a host-side
	// halo exchange). All snapshots are taken before any band starts
	// writing, which also keeps the chain independent of the band count.
	W := e.words
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
	// One persistent draw scratch per band: the batched kernel reuses its
	// buffer across rows and sweeps, and bands never share one (they run
	// concurrently).
	if len(e.scratches) < len(plan) {
		e.scratches = make([]Scratch, len(plan))
	}
	var wg sync.WaitGroup
	for i, b := range plan {
		wg.Add(1)
		go func(b band, sc *Scratch) {
			defer wg.Done()
			e.updateColorRows(parity, step, b.r0, b.r1, b.north, b.south, sc)
		}(b, &e.scratches[i])
	}
	wg.Wait()
}

// rowWords returns the packed words of one lattice row.
func (e *Engine) rowWords(r int) []uint64 {
	return e.spins[r*e.words : (r+1)*e.words]
}

// updateColorRows updates the sites of one colour in rows [r0, r1). When
// northHalo/southHalo are non-nil they are pre-update snapshots of rows
// r0-1 and r1 (mod rows), used instead of the live lattice at the band
// boundary. All neighbour bits consumed by the update belong to the other
// colour, so live interior reads and snapshot boundary reads see the same
// values and the result is independent of the banding.
func (e *Engine) updateColorRows(parity int, step uint64, r0, r1 int, northHalo, southHalo []uint64, sc *Scratch) {
	W := e.words
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
		// The torus wraps east of the last word onto the row's first word and
		// west of the first word onto its last (only one bit of each is
		// consumed, and it always belongs to the inactive colour).
		e.kern.UpdateRowScratch(row, north, south, row[W-1], row[0], r, 0, parity, step, sc)
	}
}

// siteRand returns the 32-bit random consumed by site (r, c) at the given
// colour-step in per-site mode; it is the pure function the bulk kernel
// evaluates four lanes at a time (the scalar reference of the equivalence
// tests recomputes decisions from it).
func (e *Engine) siteRand(step uint64, r, c int) uint32 {
	j := c >> 1
	ctr := rng.Counter{uint32(step), uint32(step >> 32), uint32(int64(r)), uint32(j >> 2)}
	return rng.Block(ctr, e.kern.Key)[j&3]
}

// wordRand returns the shared random of word w of row r in shared mode.
func (e *Engine) wordRand(step uint64, r, w int) uint32 {
	return rng.Block(rng.Counter{uint32(step), uint32(step >> 32), uint32(int64(r)), uint32(w)}, e.kern.Key)[0]
}

// Spin returns the spin at (row, col) as +-1 (no wrapping).
func (e *Engine) Spin(row, col int) int8 {
	if e.spins[row*e.words+col/WordBits]>>(uint(col)%WordBits)&1 == 1 {
		return 1
	}
	return -1
}

// SumSpins returns the total spin.
func (e *Engine) SumSpins() int64 {
	ones := 0
	for _, v := range e.spins {
		ones += bits.OnesCount64(v)
	}
	return int64(2*ones) - int64(e.N())
}

// Magnetization returns the magnetisation per spin.
func (e *Engine) Magnetization() float64 {
	return float64(e.SumSpins()) / float64(e.N())
}

// Energy returns the energy per spin: each site's east and south bonds are
// compared bitwise, so a popcount of the disagreement words counts the
// frustrated bonds.
func (e *Engine) Energy() float64 {
	W := e.words
	diff := 0
	for r := 0; r < e.rows; r++ {
		row := e.rowWords(r)
		south := e.rowWords((r + 1) % e.rows)
		for w := 0; w < W; w++ {
			wE := w + 1
			if wE == W {
				wE = 0
			}
			east := (row[w] >> 1) | (row[wE] << 63)
			diff += bits.OnesCount64(row[w] ^ east)
			diff += bits.OnesCount64(row[w] ^ south[w])
		}
	}
	n := e.N()
	return -ising.J * float64(2*n-2*diff) / float64(n)
}

// Lattice returns the current configuration as an ising.Lattice.
func (e *Engine) Lattice() *ising.Lattice {
	l := ising.NewLattice(e.rows, e.cols)
	for r := 0; r < e.rows; r++ {
		row := e.rowWords(r)
		for c := 0; c < e.cols; c++ {
			if row[c/WordBits]>>(uint(c)%WordBits)&1 == 0 {
				l.Spins[r*e.cols+c] = -1
			}
		}
	}
	return l
}

// SetLattice loads a configuration from an ising.Lattice.
func (e *Engine) SetLattice(l *ising.Lattice) error {
	if l.Rows != e.rows || l.Cols != e.cols {
		return fmt.Errorf("multispin: lattice is %dx%d, engine is %dx%d", l.Rows, l.Cols, e.rows, e.cols)
	}
	for i := range e.spins {
		e.spins[i] = 0
	}
	for r := 0; r < e.rows; r++ {
		row := e.rowWords(r)
		for c := 0; c < e.cols; c++ {
			if l.Spins[r*e.cols+c] == 1 {
				row[c/WordBits] |= 1 << (uint(c) % WordBits)
			}
		}
	}
	return nil
}

// Hash returns an FNV-1a hash of the packed configuration, used by the
// determinism tests to compare whole lattices cheaply.
func (e *Engine) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range e.spins {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}
