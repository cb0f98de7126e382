package ensemble_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/ensemble"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/ising/sharded"
	"tpuising/internal/ising/shardedensemble"
	"tpuising/internal/rng"
)

// The multispin backend's batches run the kernel as the lane-packed pod
// engine on one shard; these tests drive that engine, built the way the
// registry builds it, against standalone multispin chains.

// Config is the engine configuration.
type Config = shardedensemble.Config

// Engine is the engine the multispin backend's batches run on.
type Engine = shardedensemble.Engine

// New builds the engine the registry serves as "ensemble".
func New(cfg Config) (*Engine, error) {
	cfg.Name = "ensemble"
	return shardedensemble.New(cfg)
}

// newStandalone builds the multispin chain lane L of an ensemble must match:
// same lattice, lane-derived seed, per-site randoms.
func newStandalone(t *testing.T, rows, cols int, temp float64, seed uint64, lane int, hot bool) *sharded.Engine {
	t.Helper()
	cfg := sharded.Config{
		Name: "multispin", Rows: rows, Cols: cols, Temperature: temp,
		Seed: ising.LaneSeed(seed, lane),
	}
	if hot {
		cfg.Initial = ising.NewRandomLattice(rows, cols, rng.New(ising.LaneSeed(seed, lane)))
	}
	ms, err := sharded.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// assertLaneEqual compares one lane of the ensemble against a standalone
// multispin chain: spins, magnetisation and energy must be identical.
func assertLaneEqual(t *testing.T, e *Engine, lane int, ms *sharded.Engine, label string) {
	t.Helper()
	lat := e.LaneLattice(lane)
	ref := ms.Lattice()
	for i := range lat.Spins {
		if lat.Spins[i] != ref.Spins[i] {
			t.Fatalf("%s: lane %d spin %d is %d, standalone multispin has %d",
				label, lane, i, lat.Spins[i], ref.Spins[i])
		}
	}
	if m := e.Magnetizations()[lane]; m != ms.Magnetization() {
		t.Fatalf("%s: lane %d magnetisation %v, standalone %v", label, lane, m, ms.Magnetization())
	}
	if en := e.Energies()[lane]; en != ms.Energy() {
		t.Fatalf("%s: lane %d energy %v, standalone %v", label, lane, en, ms.Energy())
	}
}

// TestLaneEquivalence is the determinism contract of the packed engine: lane
// L of a B-lane ensemble is bit-identical (spins and observables) to a
// standalone multispin chain seeded with ising.LaneSeed(seed, L), for several
// lane counts, lattice sizes, cold and hot starts.
func TestLaneEquivalence(t *testing.T) {
	const sweeps = 12
	for _, tc := range []struct {
		rows, cols, lanes int
		hot               bool
	}{
		{8, 64, 1, false},
		{8, 64, 5, false},
		{6, 128, 64, false},
		{8, 64, 64, true},
	} {
		e, err := New(Config{
			Rows: tc.rows, Cols: tc.cols, Lanes: tc.lanes,
			Temperature: 2.3, Seed: 7, Hot: tc.hot,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(sweeps)
		for _, lane := range []int{0, tc.lanes / 2, tc.lanes - 1} {
			ms := newStandalone(t, tc.rows, tc.cols, 2.3, 7, lane, tc.hot)
			ms.Run(sweeps)
			assertLaneEqual(t, e, lane, ms, "cold/hot equivalence")
			if e.Step() != ms.Step() {
				t.Fatalf("step %d vs standalone %d", e.Step(), ms.Step())
			}
		}
	}
}

// TestLaneTemperatures: with per-lane temperatures, every lane matches a
// standalone multispin chain at that lane's temperature and derived seed —
// the property that lets a whole temperature scan or tempering ladder run as
// one ensemble.
func TestLaneTemperatures(t *testing.T) {
	temps := []float64{2.0, 2.3, 3.1}
	e, err := New(Config{Rows: 8, Cols: 64, Lanes: 3, Temperatures: temps, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	for lane, temp := range temps {
		ms := newStandalone(t, 8, 64, temp, 11, lane, false)
		ms.Run(10)
		assertLaneEqual(t, e, lane, ms, "per-lane temperature")
		if got := e.LaneTemperature(lane); got != temp {
			t.Fatalf("lane %d temperature %v, want %v", lane, got, temp)
		}
	}
}

// TestSetLaneTemperatureContinuesChain mirrors a tempering swap: changing one
// lane's temperature mid-run must continue that lane exactly like a
// standalone chain whose SetTemperature was called at the same step.
func TestSetLaneTemperatureContinuesChain(t *testing.T) {
	e, err := New(Config{Rows: 8, Cols: 64, Lanes: 4, Temperature: 2.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ms := newStandalone(t, 8, 64, 2.4, 3, 2, false)
	e.Run(6)
	ms.Run(6)
	e.SetLaneTemperature(2, 3.0)
	ms.SetTemperature(3.0)
	e.Run(6)
	ms.Run(6)
	assertLaneEqual(t, e, 2, ms, "mid-run temperature change")
	// An untouched lane keeps its original temperature chain.
	ref := newStandalone(t, 8, 64, 2.4, 3, 1, false)
	ref.Run(12)
	assertLaneEqual(t, e, 1, ref, "untouched lane")
}

// TestWorkerDeterminism: the ensemble state must be bit-identical for every
// worker count (the row-band halo snapshots make the chain independent of
// the banding, exactly like multispin).
func TestWorkerDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want uint64
	for i, workers := range []int{1, 2, 5, 5} {
		runtime.GOMAXPROCS(4)
		e, err := New(Config{
			Rows: 16, Cols: 64, Lanes: 64, Temperature: 2.3, Seed: 5,
			Workers: workers, Hot: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(8)
		h := e.Hash()
		if i == 0 {
			want = h
		} else if h != want {
			t.Fatalf("workers=%d: hash %x, want %x", workers, h, want)
		}
	}
}

// TestCrossLaneIndependence is the physics check documented in
// docs/PHYSICS.md: the lanes draw through independent keyed streams, so the
// covariance of their magnetisation series must vanish within statistical
// error.
func TestCrossLaneIndependence(t *testing.T) {
	const lanes, burnIn, samples = 6, 100, 400
	e, err := New(Config{Rows: 16, Cols: 64, Lanes: lanes, Temperature: 3.5, Seed: 13, Hot: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(burnIn)
	series := make([][]float64, lanes)
	for s := 0; s < samples; s++ {
		e.Sweep()
		for l, m := range e.Magnetizations() {
			series[l] = append(series[l], m)
		}
	}
	mean := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	for a := 0; a < lanes; a++ {
		for b := a + 1; b < lanes; b++ {
			ma, mb := mean(series[a]), mean(series[b])
			var cov, va, vb float64
			for i := range series[a] {
				da, db := series[a][i]-ma, series[b][i]-mb
				cov += da * db
				va += da * da
				vb += db * db
			}
			corr := cov / math.Sqrt(va*vb)
			if math.Abs(corr) > 0.25 {
				t.Errorf("lanes %d,%d: magnetisation correlation %.3f, want ~0", a, b, corr)
			}
		}
	}
}

// TestConfigErrors exercises the constructor's validation.
func TestConfigErrors(t *testing.T) {
	bad := []Config{
		{Rows: 7, Cols: 64, Lanes: 2},                                    // odd rows
		{Rows: 8, Cols: 60, Lanes: 2},                                    // cols not a multiple of 64
		{Rows: 8, Cols: 64, Lanes: 0},                                    // no lanes
		{Rows: 8, Cols: 64, Lanes: 65},                                   // too many lanes
		{Rows: 8, Cols: 64, Lanes: 3, Temperatures: []float64{2.0, 2.1}}, // len mismatch
		{Rows: 8, Cols: 64, Lanes: 2, Temperatures: []float64{2.0, -1}},  // bad temperature
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := ensemble.NewKernel(1, []float64{2.0}, true); err == nil {
		t.Error("NewKernel accepted the removed class-shared random mode")
	}
}

// TestObservableCache: repeated reads at one step agree, and a sweep or a
// lattice load invalidates the cache.
func TestObservableCache(t *testing.T) {
	e, err := New(Config{Rows: 8, Cols: 64, Lanes: 8, Temperature: 2.5, Seed: 1, Hot: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	m1, m2 := e.Magnetizations(), e.Magnetizations()
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatal("repeated Magnetizations reads disagree")
		}
	}
	e.Sweep()
	if err := e.SetLaneLattice(0, ising.NewLattice(8, 64)); err != nil {
		t.Fatal(err)
	}
	if m := e.Magnetizations()[0]; m != 1 {
		t.Fatalf("lane 0 loaded all-up, magnetisation %v", m)
	}
}

// reference replays an ensemble's colour updates row by row through the
// kernel on a plain copy of its words, as a whole-lattice torus with the
// row's own end words as wraps.
type reference struct {
	kern       *ensemble.Kernel
	rows, cols int
	words      []uint64
	step       uint64
}

// newReference copies the initial state of an engine built from cfg and
// derives the same kernel.
func newReference(t *testing.T, cfg Config) *reference {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	temps := cfg.Temperatures
	if len(temps) == 0 {
		temps = make([]float64, cfg.Lanes)
		for i := range temps {
			temps[i] = cfg.Temperature
		}
	}
	k, err := ensemble.NewKernel(cfg.Seed, temps, false)
	if err != nil {
		t.Fatal(err)
	}
	r := &reference{kern: k, rows: cfg.Rows, cols: cfg.Cols}
	e.EachRow(func(_, _ int, words []uint64) { r.words = append(r.words, words...) })
	return r
}

// rowWords returns the lane-packed words of one row.
func (r *reference) rowWords(i int) []uint64 { return r.words[i*r.cols : (i+1)*r.cols] }

// sweep runs both colour updates through UpdateRowRef, or through the
// optimized UpdateRow when optimized is set.
func (r *reference) sweep(optimized bool) {
	for _, pc := range []struct {
		parity int
		step   uint64
	}{{0, r.step}, {1, r.step + 1}} {
		for i := 0; i < r.rows; i++ {
			row := r.rowWords(i)
			north, south := r.rowWords((i-1+r.rows)%r.rows), r.rowWords((i+1)%r.rows)
			if optimized {
				r.kern.UpdateRow(row, north, south, row[r.cols-1], row[0], i, 0, pc.parity, pc.step, nil)
			} else {
				r.kern.UpdateRowRef(row, north, south, row[r.cols-1], row[0], i, 0, pc.parity, pc.step)
			}
		}
	}
	r.step += 2
}

// hash is the FNV-1a hash of the active lane bits in row-major site order,
// the engine's Hash.
func (r *reference) hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range r.words {
		binary.LittleEndian.PutUint64(buf[:], v&r.kern.LaneMask())
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestUpdateRowGoldenEquivalence pins the optimized batched ΔE-class loop to
// the retained naive reference (UpdateRowRef) bit-for-bit, across random
// lane counts, ladders and steps — the ensemble half of the
// golden-equivalence contract (the multispin half lives in
// multispin/kernel_equiv_test.go). The random trials sweep the engine the
// multispin batches run on; the threshold edges, which no temperature
// reaches exactly, sweep the kernel directly. It runs on the host's dispatch
// (the AVX-512 or AVX2 lane kernel where the CPU has it); CI also runs it
// under -race and under GOARCH=386, where the portable loop runs.
func TestUpdateRowGoldenEquivalence(t *testing.T) {
	prng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		lanes := 1 + prng.Intn(ensemble.MaxLanes)
		rows := 2 + 2*prng.Intn(3)
		cols := 64 * (1 + prng.Intn(3))
		var temps []float64
		if prng.Intn(2) == 1 { // non-uniform ladder
			temps = make([]float64, lanes)
			for i := range temps {
				temps[i] = 1.5 + 2*prng.Float64()
			}
		}
		cfg := Config{
			Rows: rows, Cols: cols, Lanes: lanes,
			Temperature: 2.3, Temperatures: temps,
			Seed: prng.Uint64(), Hot: true,
		}
		opt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newReference(t, cfg)
		for sweep := 0; sweep < 3; sweep++ {
			opt.Sweep()
			ref.sweep(false)
		}
		if opt.Hash() != ref.hash() {
			t.Fatalf("trial %d (lanes=%d %dx%d ladder=%v): optimized loop diverged from reference",
				trial, lanes, rows, cols, temps != nil)
		}
	}

	// Threshold edges: T8 = 0 below T≈0.36 and T4 = 1<<32 at very large T
	// are both reachable from a job spec. Every lane gets its own pair of
	// edge values, so one call mixes edges across the vector body and the
	// portable tail.
	edges := []uint64{0, 1, 1 << 31, 1<<32 - 1, 1 << 32}
	for i := range edges {
		for j := range edges {
			lanes := 1 + prng.Intn(ensemble.MaxLanes)
			cfg := Config{Rows: 4, Cols: 64, Lanes: lanes, Temperature: 2.3, Seed: prng.Uint64(), Hot: true}
			opt, ref := newReference(t, cfg), newReference(t, cfg)
			for l := 0; l < lanes; l++ {
				th := multispin.Thresholds{T4: edges[(i+l)%len(edges)], T8: edges[(j+2*l)%len(edges)]}
				opt.kern.SetLaneThresholds(l, th)
				ref.kern.SetLaneThresholds(l, th)
			}
			opt.sweep(true)
			ref.sweep(false)
			if opt.hash() != ref.hash() {
				t.Fatalf("edge case %d,%d (lanes=%d): optimized loop diverged from reference", i, j, lanes)
			}
		}
	}
}

// BenchmarkEnsembleSweep measures the optimized 64-lane hot loop on the
// engine the multispin batches and the sharded-ensemble pod run.
func BenchmarkEnsembleSweep(b *testing.B) {
	e, err := New(Config{Rows: 64, Cols: 64, Lanes: 64, Temperature: 2.4, Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(e.N()) * int64(e.Lanes()) / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Sweep()
	}
}
