// Package backend constructs the repository's Ising engines by name behind
// the ising.Backend interface: the serial checkerboard reference, the
// GPU-style parallel CPU baseline, the bit-packed multispin engine, its
// mesh-sharded pod decomposition (sharded) and the simulated-TPU simulator.
// The bit-packed engines are one program on the pod Driver
// (internal/ising/sharded): multispin is its one-shard grid, the single core,
// and sharded any grid. NewBatch serves the batch axis: a multispin or
// sharded batch of enough lanes runs as the lane-packed pod engine
// (internal/ising/shardedensemble) — from 32 lanes on one shard,
// reporting "ensemble" for multispin, and from 16 on a pod grid, reporting
// "sharded-ensemble" (an alias of sharded) — and every other batch on the
// generic adapter, one chain per lane. The CLI's -backend flag, the service,
// the tempering ladder and the repository benchmarks all go through this
// package, so adding an engine here makes it available everywhere at once.
package backend

import (
	"fmt"
	"sort"
	"strings"

	"tpuising/internal/ising"
	"tpuising/internal/ising/checkerboard"
	"tpuising/internal/ising/gpusim"
	"tpuising/internal/ising/sharded"
	"tpuising/internal/ising/shardedensemble"
	"tpuising/internal/ising/tpu"
	"tpuising/internal/rng"
	"tpuising/internal/tensor"
)

// Config carries the union of the engine configuration parameters; each
// engine reads the fields it understands and ignores the rest.
type Config struct {
	// Rows and Cols are the lattice dimensions (the multispin engines need
	// even Rows and Cols a multiple of 64).
	Rows, Cols int
	// Temperature is in units of J/kB (0 = the critical temperature).
	Temperature float64
	// Seed seeds the engine's site-keyed random stream.
	Seed uint64
	// Workers is the goroutine count of the parallel host engines
	// (0 = GOMAXPROCS).
	Workers int
	// GridR and GridC are the shard grid dimensions of the sharded backend
	// (0 = 1): GridR shards along the rows, GridC along the columns, one
	// simulated mesh core per shard. The other engines ignore them.
	GridR, GridC int
	// TileSize is the simulated MXU tile edge of the tpu backend (0 picks the
	// largest power-of-two tile, up to 128, that divides half of both
	// dimensions).
	TileSize int
	// DType is the tpu backend's storage precision (default bfloat16).
	DType tensor.DType
	// Algorithm is the tpu backend's update kernel (default Algorithm 2).
	Algorithm tpu.Algorithm
	// Hot starts from a random (infinite-temperature) lattice instead of the
	// cold all-up start. The tpu backend ignores it.
	Hot bool
}

// builders maps canonical backend names to constructors.
var builders = map[string]func(Config) (ising.Backend, error){
	"checkerboard": newCheckerboard,
	"gpusim":       newGPUSim,
	"multispin":    newMultispin,
	"sharded":      newSharded,
	"tpu":          newTPU,
}

// aliases maps accepted spellings to canonical names.
var aliases = map[string]string{
	"serial":   "checkerboard",
	"cpu":      "checkerboard",
	"parallel": "gpusim",
	"gpu":      "gpusim",
	// The lane-packed pod engine is the batch form of both sharded and
	// multispin: NewBatch picks it for sharded batches of 16 or more lanes
	// on a pod grid.
	"sharded-ensemble": "sharded",
}

// Names returns the canonical backend names, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// List returns the canonical backend names joined as "a, b, c". It is the
// single source of the registry listing used by every user-facing error and
// usage string — the -backend flag help, the CLI's flag-validation fatals and
// the service's job-spec errors all print exactly this list.
func List() string { return strings.Join(Names(), ", ") }

// Canonical resolves a backend name or alias to its canonical form.
func Canonical(name string) (string, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if a, ok := aliases[n]; ok {
		n = a
	}
	if _, ok := builders[n]; !ok {
		return "", fmt.Errorf("backend: unknown engine %q (want one of %s)", name, List())
	}
	return n, nil
}

// New builds the named engine. Name matching is case-insensitive and accepts
// the aliases serial/cpu (checkerboard), parallel/gpu (gpusim) and
// sharded-ensemble (sharded).
func New(name string, cfg Config) (ising.Backend, error) {
	n, err := Canonical(name)
	if err != nil {
		return nil, err
	}
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("backend: invalid lattice size %dx%d", cfg.Rows, cfg.Cols)
	}
	return builders[n](cfg)
}

// NewBatch builds a batched ensemble of `lanes` independent chains of the
// named engine, all at cfg.Temperature, with lane L seeded
// ising.LaneSeed(cfg.Seed, L). A per-site bit-packed batch (multispin, or
// sharded on its own grid) of 32 to 64 lanes on one shard, or 16 to 64 on a
// pod grid, comes back as one lane-packed internal/ising/shardedensemble
// engine: one word pass per site and one halo exchange per boundary for all
// lanes, named "ensemble" for multispin and "sharded-ensemble" for sharded.
// Every other batch, narrower ones included (they sweep faster one chain per
// lane), is lifted through the generic adapter, so the batch axis works for
// the whole registry. Batching is an execution strategy, never a physics
// change: lane L's chain is the same chain either way.
func NewBatch(name string, cfg Config, lanes int) (ising.BatchBackend, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("backend: batch needs at least 1 lane, got %d", lanes)
	}
	temps := make([]float64, lanes)
	for i := range temps {
		temps[i] = temperature(cfg)
	}
	return NewBatchLadder(name, cfg, temps)
}

// NewBatchLadder is NewBatch with one temperature per lane: lane L runs at
// temps[L] (still seeded ising.LaneSeed(cfg.Seed, L), cfg.Temperature
// ignored). It is how the consumers hand a whole tempering ladder or
// temperature scan to one batched backend.
func NewBatchLadder(name string, cfg Config, temps []float64) (ising.BatchBackend, error) {
	n, err := Canonical(name)
	if err != nil {
		return nil, err
	}
	if len(temps) == 0 {
		return nil, fmt.Errorf("backend: batch needs at least 1 lane temperature")
	}
	if sc, ok := packedConfig(n, cfg, temps); ok {
		return shardedensemble.New(sc)
	}
	backends := make([]ising.Backend, len(temps))
	for i, temp := range temps {
		c := cfg
		c.Temperature = temp
		c.Seed = ising.LaneSeed(cfg.Seed, i)
		if backends[i], err = New(n, c); err != nil {
			return nil, fmt.Errorf("backend: building batch lane %d: %w", i, err)
		}
	}
	return ising.NewBatchOf(backends, cfg.Workers)
}

// The lane counts from which a batch runs lane-packed. The packed engine
// sweeps and exchanges a whole 64-lane word per site whatever the lane
// count; the adapter costs in proportion to its lanes. BenchmarkBatchRoute
// on a 2-vCPU AVX-512 Xeon put the crossover near 32 lanes on one shard and
// near 16 on a pod grid, where one halo exchange for all lanes pays sooner.
const packedLanesOneShard, packedLanesPod = 32, 16

// packedConfig returns the lane-packed engine of a batch, and whether the
// batch runs on it. Only per-site bit-packed chains qualify, because packed
// lane L is bit-identical to the standalone chain seeded ising.LaneSeed:
// multispin, which is the one-shard grid, and sharded on its own grid. The
// grid rule is sharded's (whole 64-column words per shard), so a batch takes
// exactly the grids a chain takes; a config that breaks it falls back to the
// adapter, which reports the chain's error.
func packedConfig(name string, cfg Config, temps []float64) (shardedensemble.Config, bool) {
	sc := shardedensemble.Config{
		Rows: cfg.Rows, Cols: cfg.Cols, GridR: max(cfg.GridR, 1), GridC: max(cfg.GridC, 1),
		Lanes: len(temps), Temperatures: temps, Seed: cfg.Seed, Workers: cfg.Workers, Hot: cfg.Hot,
	}
	if name == "multispin" {
		sc.Name, sc.GridR, sc.GridC = "ensemble", 1, 1
	}
	threshold := packedLanesPod
	if sc.GridR*sc.GridC == 1 {
		threshold = packedLanesOneShard
	}
	return sc, (name == "multispin" || name == "sharded") &&
		sc.Lanes >= threshold && sc.Lanes <= shardedensemble.MaxLanes &&
		sc.Rows >= 2 && sc.Rows%2 == 0 && sc.Rows%sc.GridR == 0 &&
		sc.Cols > 0 && sc.Cols%(sharded.WordBits*sc.GridC) == 0
}

// hostLattice builds the starting configuration of the host engines.
func hostLattice(cfg Config) *ising.Lattice {
	if cfg.Hot {
		return ising.NewRandomLattice(cfg.Rows, cfg.Cols, rng.New(cfg.Seed))
	}
	return ising.NewLattice(cfg.Rows, cfg.Cols)
}

func newCheckerboard(cfg Config) (ising.Backend, error) {
	return checkerboard.NewSampler(hostLattice(cfg), temperature(cfg), cfg.Seed), nil
}

func newGPUSim(cfg Config) (ising.Backend, error) {
	// ParallelSweep's row-band parallelism relies on the checkerboard being
	// bipartite on the torus, which needs even dimensions: with an odd row
	// count the wrap-around neighbours share a colour and adjacent bands
	// would race on them.
	if cfg.Rows%2 != 0 || cfg.Cols%2 != 0 {
		return nil, fmt.Errorf("backend: gpusim needs even lattice dimensions, got %dx%d", cfg.Rows, cfg.Cols)
	}
	return gpusim.NewSampler(hostLattice(cfg), temperature(cfg), cfg.Seed, cfg.Workers), nil
}

// newMultispin builds the multispin backend: the pod engine's one-shard
// grid, the single core, named "multispin".
func newMultispin(cfg Config) (ising.Backend, error) {
	return newPodChain(sharded.Config{Name: "multispin"}, cfg)
}

func newSharded(cfg Config) (ising.Backend, error) {
	return newPodChain(sharded.Config{GridR: cfg.GridR, GridC: cfg.GridC}, cfg)
}

// newPodChain completes a sharded.Config from the registry config.
func newPodChain(sc sharded.Config, cfg Config) (ising.Backend, error) {
	sc.Rows, sc.Cols = cfg.Rows, cfg.Cols
	sc.Temperature, sc.Seed, sc.Workers = cfg.Temperature, cfg.Seed, cfg.Workers
	if cfg.Hot {
		sc.Initial = hostLattice(cfg)
	}
	return sharded.New(sc)
}

func newTPU(cfg Config) (ising.Backend, error) {
	tile := cfg.TileSize
	if tile == 0 {
		tile = DefaultTile(cfg.Rows, cfg.Cols)
	}
	return tpu.NewSimulator(tpu.Config{
		Rows: cfg.Rows, Cols: cfg.Cols, Temperature: cfg.Temperature,
		TileSize: tile, DType: cfg.DType, Algorithm: cfg.Algorithm, Seed: cfg.Seed,
	}), nil
}

// temperature applies the shared zero-means-Tc default.
func temperature(cfg Config) float64 {
	if cfg.Temperature == 0 {
		return ising.CriticalTemperature()
	}
	return cfg.Temperature
}

// DefaultTile picks the largest power-of-two MXU tile (up to 128) that
// divides half of both lattice dimensions, so small demo lattices work out of
// the box on the tpu backend.
func DefaultTile(rows, cols int) int {
	for _, t := range []int{128, 64, 32, 16, 8, 4, 2} {
		if rows%(2*t) == 0 && cols%(2*t) == 0 {
			return t
		}
	}
	return 2
}
