package ensemble

import (
	"math"
	"runtime"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/rng"
)

// newStandalone builds the multispin chain lane L of an ensemble must match:
// same lattice, lane-derived seed, per-site randoms.
func newStandalone(t *testing.T, rows, cols int, temp float64, seed uint64, lane int, hot bool) *multispin.Engine {
	t.Helper()
	cfg := multispin.Config{
		Rows: rows, Cols: cols, Temperature: temp,
		Seed: ising.LaneSeed(seed, lane),
	}
	if hot {
		cfg.Initial = ising.NewRandomLattice(rows, cols, rng.New(ising.LaneSeed(seed, lane)))
	}
	ms, err := multispin.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// assertLaneEqual compares one lane of the ensemble against a standalone
// multispin chain: spins, magnetisation and energy must be identical.
func assertLaneEqual(t *testing.T, e *Engine, lane int, ms *multispin.Engine, label string) {
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
	if _, err := NewKernel(1, []float64{2.0}, true); err == nil {
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
