package shardedensemble

import (
	"runtime"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/perf"
)

// TestLaneBitIdenticalToStandaloneEnsemble is the composition's central
// contract: every lane of a sharded ensemble is bit-identical to the same
// lane of a standalone ensemble (the one-shard engine the registry serves as
// "ensemble", on one worker) with the same seed, for non-trivial grids
// including non-square ones and temperature ladders. The comparison is on the
// full packed configuration (Hash covers every lane bit of every site), plus
// the per-lane observables.
func TestLaneBitIdenticalToStandaloneEnsemble(t *testing.T) {
	cases := []struct {
		rows, cols   int
		gridR, gridC int
		lanes        int
		ladder       bool
	}{
		{rows: 8, cols: 64, gridR: 2, gridC: 2, lanes: 5, ladder: false},
		{rows: 12, cols: 128, gridR: 3, gridC: 4, lanes: 64, ladder: true},
		{rows: 6, cols: 192, gridR: 2, gridC: 8, lanes: 17, ladder: false},
		{rows: 16, cols: 64, gridR: 4, gridC: 1, lanes: 3, ladder: true},
		{rows: 4, cols: 128, gridR: 1, gridC: 16, lanes: 33, ladder: false},
	}
	for _, tc := range cases {
		var temps []float64
		if tc.ladder {
			temps = make([]float64, tc.lanes)
			for i := range temps {
				temps[i] = 1.8 + 0.05*float64(i)
			}
		}
		sharded, err := New(Config{
			Rows: tc.rows, Cols: tc.cols, GridR: tc.gridR, GridC: tc.gridC,
			Lanes: tc.lanes, Temperature: 2.3, Temperatures: temps,
			Seed: 77, Hot: true,
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		plain, err := New(Config{
			Name: "ensemble", Rows: tc.rows, Cols: tc.cols, Lanes: tc.lanes,
			Temperature: 2.3, Temperatures: temps,
			Seed: 77, Hot: true, Workers: 1,
		})
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if sharded.Hash() != plain.Hash() {
			t.Fatalf("%+v: initial configurations differ", tc)
		}
		for sweep := 0; sweep < 4; sweep++ {
			// Mid-run lane re-temperatures must stay identical too (the
			// tempering swap path).
			if sweep == 2 {
				sharded.SetLaneTemperature(0, 2.9)
				plain.SetLaneTemperature(0, 2.9)
			}
			sharded.Sweep()
			plain.Sweep()
			if sharded.Hash() != plain.Hash() {
				t.Fatalf("%+v: configurations diverged at sweep %d", tc, sweep)
			}
		}
		sm, pm := sharded.Magnetizations(), plain.Magnetizations()
		se, pe := sharded.Energies(), plain.Energies()
		for l := 0; l < tc.lanes; l++ {
			if sm[l] != pm[l] || se[l] != pe[l] {
				t.Fatalf("%+v lane %d: observables (m=%v e=%v) differ from standalone (m=%v e=%v)",
					tc, l, sm[l], se[l], pm[l], pe[l])
			}
		}
		if sharded.Step() != plain.Step() {
			t.Fatalf("%+v: steps diverged", tc)
		}
	}
}

// TestGridInvariance: the same run over different shard grids (including
// 1x1) is one chain — the decomposition is invisible in the configuration.
func TestGridInvariance(t *testing.T) {
	var ref *Engine
	for _, grid := range [][2]int{{1, 1}, {2, 2}, {4, 2}, {1, 8}} {
		e, err := New(Config{
			Rows: 8, Cols: 128, GridR: grid[0], GridC: grid[1],
			Lanes: 9, Temperature: 2.2, Seed: 5, Hot: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(3)
		if ref == nil {
			ref = e
			continue
		}
		if e.Hash() != ref.Hash() {
			t.Fatalf("grid %v configuration differs from grid 1x1", grid)
		}
	}
}

// TestConfigValidation: the documented constraints reject with errors, not
// panics.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Rows: 7, Cols: 64, Lanes: 1},                              // odd rows
		{Rows: 8, Cols: 60, Lanes: 1},                              // cols not a multiple of 64
		{Rows: 8, Cols: 64, Lanes: 0},                              // no lanes
		{Rows: 8, Cols: 64, Lanes: 65},                             // too many lanes
		{Rows: 8, Cols: 64, Lanes: 1, GridR: 3},                    // rows do not divide
		{Rows: 8, Cols: 64, Lanes: 1, GridC: 16},                   // shard narrower than a group
		{Rows: 8, Cols: 64, Lanes: 2, Temperatures: []float64{2}},  // ladder length mismatch
		{Rows: 8, Cols: 64, Lanes: 1, Temperatures: []float64{-1}}, // non-positive rung
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
	if _, err := New(Config{Rows: 8, Cols: 64, Lanes: 1, GridC: 8}); err != nil {
		t.Errorf("8-column shards rejected: %v", err)
	}
}

// TestCommCountsMatchShardedEnsembleTraffic: the engine's measured
// interconnect counters must reproduce the perf model's analytic per-sweep
// traffic exactly — the property that lets the perf model's byte counts
// stand in for the engine's halo traffic.
func TestCommCountsMatchShardedEnsembleTraffic(t *testing.T) {
	for _, grid := range [][2]int{{1, 1}, {2, 2}, {3, 4}, {4, 1}} {
		e, err := New(Config{
			Rows: 24, Cols: 64 * grid[1], GridR: grid[0], GridC: grid[1],
			Lanes: 48, Temperature: 2.5, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		const sweeps = 5
		e.Run(sweeps)
		rep := perf.ShardedEnsembleTraffic(perf.ShardedEnsembleSpec{
			Rows: e.Rows(), Cols: e.Cols(), GridR: grid[0], GridC: grid[1], Lanes: e.Lanes(),
		}, e.Pod().Mesh().Link)
		c := e.Counts()
		if c.CommBytes != sweeps*rep.TotalBytes {
			t.Errorf("grid %v: measured CommBytes %d != modelled %d", grid, c.CommBytes, sweeps*rep.TotalBytes)
		}
		if c.CommEvents != sweeps*rep.Events {
			t.Errorf("grid %v: measured CommEvents %d != modelled %d", grid, c.CommEvents, sweeps*rep.Events)
		}
		if c.Ops != sweeps*int64(e.N())*int64(e.Lanes()) {
			t.Errorf("grid %v: Ops = %d, want %d", grid, c.Ops, sweeps*int64(e.N())*int64(e.Lanes()))
		}
		if cores := grid[0] * grid[1]; cores == 1 && (c.CommBytes != 0 || rep.PermuteSec != 0) {
			t.Errorf("grid %v: a single core should move no halo traffic (measured %d bytes, modelled %v s)",
				grid, c.CommBytes, rep.PermuteSec)
		} else if cores > 1 && rep.PermuteSec <= 0 {
			t.Errorf("grid %v: modelled permute time should be positive", grid)
		}
	}
}

// TestBandSplitMatchesSingleBand: the single core's host row bands never
// change the lane-packed chains. Every worker count (GOMAXPROCS, one band, a
// count that does not divide the rows, more workers than rows) must
// reproduce the one-band run.
func TestBandSplitMatchesSingleBand(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	const rows = 16
	var want uint64
	for i, workers := range []int{1, 0, 3, rows + 5} {
		e, err := New(Config{
			Rows: rows, Cols: 64, Lanes: 64, Temperature: 2.3, Seed: 5, Workers: workers, Hot: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if workers > 0 && e.Workers() != min(workers, rows) {
			t.Fatalf("workers=%d: %d row bands", workers, e.Workers())
		}
		e.Run(6)
		if h := e.Hash(); i == 0 {
			want = h
		} else if h != want {
			t.Fatalf("workers=%d: hash %#x, one band %#x", workers, h, want)
		}
	}
}

// BenchmarkShardedEnsembleSweep measures the composed engine: a 2x2 pod grid,
// each shard advancing 64 lane-packed lattices.
func BenchmarkShardedEnsembleSweep(b *testing.B) {
	benchSweep(b, 2, 2)
}

// BenchmarkShardedEnsembleSweep1x1 is the no-decomposition baseline: the same
// ensemble through one shard, isolating the halo-exchange overhead.
func BenchmarkShardedEnsembleSweep1x1(b *testing.B) {
	benchSweep(b, 1, 1)
}

func benchSweep(b *testing.B, gridR, gridC int) {
	e, err := New(Config{
		Rows: 64, Cols: 64, GridR: gridR, GridC: gridC,
		Lanes: 64, Temperature: 2.4, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(e.N()) * int64(e.Lanes()) / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Sweep()
	}
}

// naiveCounts counts one lane's up spins and frustrated bonds (east and
// south, with the torus wrap) site by site from its gathered lattice.
func naiveCounts(e *Engine, lane int) (up, diff int64) {
	l := e.LaneLattice(lane)
	for r := 0; r < l.Rows; r++ {
		row, south := l.Spins[r*l.Cols:(r+1)*l.Cols], l.Spins[(r+1)%l.Rows*l.Cols:]
		for c, s := range row {
			if s == 1 {
				up++
			}
			if s != row[(c+1)%l.Cols] {
				diff++
			}
			if s != south[c] {
				diff++
			}
		}
	}
	return up, diff
}

// TestLaneObservablesMatchNaive: the bit-sliced per-lane counts behind
// Magnetizations and Energies equal a site-by-site count of every lane, on
// single and pod grids, at lane counts that leave padding lanes in the
// word. The lattice holds 2^16 sites per lane with shard rows of at least
// 256 words, so a row spans several counter blocks and the counts carry
// far past the block planes; the cold start puts the maximum, N, in the
// magnetisation count, and a checkerboard lane puts the maximum, 2N, in
// the energy count (a full bond block), for every grid.
func TestLaneObservablesMatchNaive(t *testing.T) {
	const rows, cols = 128, 512
	checker := ising.NewLattice(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if (r+c)%2 == 1 {
				checker.Set(r, c, -1)
			}
		}
	}
	for _, grid := range [][2]int{{1, 1}, {2, 2}, {2, 1}} {
		for _, lanes := range []int{1, 7, 17, 64} {
			for _, hot := range []bool{false, true} {
				e, err := New(Config{
					Rows: rows, Cols: cols, GridR: grid[0], GridC: grid[1],
					Lanes: lanes, Temperature: 2.0, Seed: 9, Hot: hot,
				})
				if err != nil {
					t.Fatal(err)
				}
				if hot {
					if err := e.SetLaneLattice(lanes-1, checker); err != nil {
						t.Fatal(err)
					}
				}
				ms, es := e.Magnetizations(), e.Energies()
				n := int64(e.N())
				for l := 0; l < lanes; l++ {
					up, diff := naiveCounts(e, l)
					wantM := float64(2*up-n) / float64(n)
					wantE := -ising.J * float64(2*n-2*diff) / float64(n)
					if ms[l] != wantM || es[l] != wantE {
						t.Fatalf("grid %v lanes %d hot %v lane %d: m=%v e=%v, naive count (%d up, %d frustrated) gives m=%v e=%v",
							grid, lanes, hot, l, ms[l], es[l], up, diff, wantM, wantE)
					}
				}
			}
		}
	}
}

// BenchmarkLaneObservables times one measurement of the lane-packed pod
// (a 2x2 grid of a 128x128 lattice, 64 lanes): a fresh Magnetizations and
// Energies pass per op.
func BenchmarkLaneObservables(b *testing.B) {
	e, err := New(Config{Rows: 128, Cols: 128, GridR: 2, GridC: 2, Lanes: 64, Temperature: 2.0, Seed: 1, Hot: true})
	if err != nil {
		b.Fatal(err)
	}
	e.Run(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.magsStep, e.esStep = ^uint64(0), ^uint64(0)
		e.Magnetizations()
		e.Energies()
	}
}
