package sharded

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/perf"
	"tpuising/internal/rng"
)

// newPair builds a sharded engine and the whole-lattice multispin reference
// (the one-shard engine the registry serves as multispin, on one worker)
// with identical physics configuration.
func newPair(t *testing.T, rows, cols, gridR, gridC int, temp float64, seed uint64, hot bool) (*Engine, *Engine) {
	t.Helper()
	var initial *ising.Lattice
	if hot {
		initial = ising.NewRandomLattice(rows, cols, rng.New(seed))
	}
	sh, err := New(Config{
		Rows: rows, Cols: cols, GridR: gridR, GridC: gridC,
		Temperature: temp, Seed: seed, Initial: initial,
	})
	if err != nil {
		t.Fatalf("sharded.New(%dx%d grid %dx%d): %v", rows, cols, gridR, gridC, err)
	}
	ref, err := New(Config{
		Name: "multispin", Rows: rows, Cols: cols, Temperature: temp, Seed: seed,
		Workers: 1, Initial: initial,
	})
	if err != nil {
		t.Fatalf("multispin reference (%dx%d): %v", rows, cols, err)
	}
	return sh, ref
}

// TestBitIdenticalToMultispin is the distributed-correctness property the
// paper checks for its pod runs: at a fixed seed the sharded engine must
// produce exactly the configuration of the whole-lattice multispin engine,
// for every shard grid (including the 1x1 degenerate grid, non-square grids,
// single-word-wide shards and single-row shards).
func TestBitIdenticalToMultispin(t *testing.T) {
	cases := []struct {
		rows, cols   int
		gridR, gridC int
	}{
		{64, 128, 1, 1}, // degenerate: one shard, the single core
		{64, 128, 2, 2},
		{64, 128, 4, 1},
		{64, 128, 1, 2},  // shards one word wide: east and west wraps both halo
		{64, 128, 2, 1},  // hot start exercised below
		{2, 128, 2, 1},   // single-row shards: north and south both halo
		{128, 256, 2, 4}, // non-square grids on a larger lattice
		{128, 256, 4, 2},
	}
	for _, tc := range cases {
		for _, mode := range []struct {
			name string
			hot  bool
		}{
			{"persite-cold", false},
			{"persite-hot", true},
		} {
			sh, ref := newPair(t, tc.rows, tc.cols, tc.gridR, tc.gridC, 2.4, 7, mode.hot)
			for sweep := 1; sweep <= 6; sweep++ {
				sh.Sweep()
				ref.Sweep()
				if sh.Hash() != ref.Hash() {
					t.Fatalf("%dx%d grid %dx%d %s: configurations diverge at sweep %d",
						tc.rows, tc.cols, tc.gridR, tc.gridC, mode.name, sweep)
				}
			}
			if sh.Magnetization() != ref.Magnetization() {
				t.Errorf("%dx%d grid %dx%d %s: magnetisation %v != %v",
					tc.rows, tc.cols, tc.gridR, tc.gridC, mode.name, sh.Magnetization(), ref.Magnetization())
			}
			if math.Abs(sh.Energy()-ref.Energy()) > 1e-12 {
				t.Errorf("%dx%d grid %dx%d %s: energy %v != %v",
					tc.rows, tc.cols, tc.gridR, tc.gridC, mode.name, sh.Energy(), ref.Energy())
			}
		}
	}
}

// TestDegenerateGridIsSingleShard: the 1x1 grid is the single core, the
// plain multispin chain: it wraps its own rows locally and moves no
// interconnect traffic.
func TestDegenerateGridIsSingleShard(t *testing.T) {
	e, err := New(Config{Rows: 64, Cols: 128})
	if err != nil {
		t.Fatal(err)
	}
	if e.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", e.NumShards())
	}
	if r, c := e.Grid(); r != 1 || c != 1 {
		t.Fatalf("Grid() = %dx%d, want 1x1", r, c)
	}
	e.Run(3)
	c := e.Counts()
	if c.CommHops != 0 {
		t.Errorf("a single core should traverse 0 hops, got %d", c.CommHops)
	}
	if c.CommEvents != 0 || c.CommBytes != 0 {
		t.Errorf("CommEvents = %d, CommBytes = %d, want 0 (a single core exchanges no halos)", c.CommEvents, c.CommBytes)
	}
}

// TestBandSplitMatchesSingleBand: the single core's host row bands never
// change the chain. Every worker count (GOMAXPROCS, one band, a count that
// does not divide the rows, more workers than rows) must reproduce the
// one-band run.
func TestBandSplitMatchesSingleBand(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	const rows = 64
	var want uint64
	for i, workers := range []int{1, 0, 3, rows + 5} {
		e, err := New(Config{
			Rows: rows, Cols: 128, Temperature: 2.3, Seed: 17,
			Workers: workers, Initial: ising.NewRandomLattice(rows, 128, rng.New(17)),
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

// TestConfigValidation: indivisible lattices and bad grids must be rejected
// with errors that say what the constraint is.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string // substring of the expected error
	}{
		{Config{Rows: 63, Cols: 128}, "rows must be even"},
		{Config{Rows: 64, Cols: 100}, "multiple of 64"},
		{Config{Rows: 64, Cols: 128, GridR: 3}, "do not divide over 3 shard rows"},
		{Config{Rows: 64, Cols: 128, GridC: 3}, "do not divide over 3 shard columns"},
		{Config{Rows: 64, Cols: 128, GridC: 4}, "do not divide over 4 shard columns"}, // 2 words over 4 shards
		{Config{Rows: 64, Cols: 128, GridR: -2}, "shard grid must be positive"},
		{Config{Rows: 64, Cols: 128, Temperature: -1}, "temperature must be positive"},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if err == nil {
			t.Errorf("New(%+v) should fail", tc.cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%+v) error %q does not mention %q", tc.cfg, err, tc.want)
		}
	}
	if _, err := New(Config{Rows: 64, Cols: 128, Initial: ising.NewLattice(32, 128)}); err == nil {
		t.Error("mismatched initial lattice should fail")
	}
}

// TestOnsagerPhysics: the sharded chain must reproduce the exact
// infinite-lattice observables in the ordered phase (T=2.0) and be
// disordered above Tc (T=3.5) — the correctness check of the paper's
// Figure 4, run on a 2x2 shard grid.
func TestOnsagerPhysics(t *testing.T) {
	const burnIn, samples = 300, 600
	measure := func(temp float64) (absM, energy float64) {
		e, err := New(Config{Rows: 128, Cols: 128, GridR: 2, GridC: 2, Temperature: temp, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(burnIn)
		for i := 0; i < samples; i++ {
			e.Sweep()
			absM += math.Abs(e.Magnetization())
			energy += e.Energy()
		}
		return absM / samples, energy / samples
	}

	absM, energy := measure(2.0)
	if want := ising.OnsagerMagnetization(2.0); math.Abs(absM-want) > 0.03 {
		t.Errorf("T=2.0: |m| = %.4f, want Onsager %.4f +- 0.03", absM, want)
	}
	if want := ising.ExactEnergyPerSpin(2.0); math.Abs(energy-want) > 0.03 {
		t.Errorf("T=2.0: E/spin = %.4f, want exact %.4f +- 0.03", energy, want)
	}

	absM, _ = measure(3.5)
	if absM > 0.1 {
		t.Errorf("T=3.5: |m| = %.4f, want disordered (< 0.1)", absM)
	}
}

// TestCommCountsMatchShardTraffic: the engine's measured interconnect
// counters must reproduce the perf model's analytic per-sweep traffic
// exactly — the property that lets benchtables print modelled traffic next
// to measured throughput.
func TestCommCountsMatchShardTraffic(t *testing.T) {
	for _, grid := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {4, 1}} {
		e, err := New(Config{Rows: 96, Cols: 192 * grid[1], GridR: grid[0], GridC: grid[1], Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		const sweeps = 5
		e.Run(sweeps)
		rep := perf.ShardTraffic(perf.ShardSpec{
			Rows: e.Rows(), Cols: e.Cols(), GridR: grid[0], GridC: grid[1],
		}, e.Pod().Mesh().Link)
		c := e.Counts()
		if c.CommBytes != sweeps*rep.TotalBytes {
			t.Errorf("grid %v: measured CommBytes %d != modelled %d", grid, c.CommBytes, sweeps*rep.TotalBytes)
		}
		if c.CommEvents != sweeps*rep.Events {
			t.Errorf("grid %v: measured CommEvents %d != modelled %d", grid, c.CommEvents, sweeps*rep.Events)
		}
		if c.Ops != sweeps*int64(e.N()) {
			t.Errorf("grid %v: Ops = %d, want %d", grid, c.Ops, sweeps*int64(e.N()))
		}
		if cores := grid[0] * grid[1]; cores == 1 && (c.CommBytes != 0 || rep.PermuteSec != 0) {
			t.Errorf("grid %v: a single core should move no halo traffic (measured %d bytes, modelled %v s)",
				grid, c.CommBytes, rep.PermuteSec)
		} else if cores > 1 && rep.PermuteSec <= 0 {
			t.Errorf("grid %v: modelled permute time should be positive", grid)
		}
	}
}

// TestObservablesMatchGatheredLattice: the packed observables must agree with
// the scalar ones computed from the gathered global lattice.
func TestObservablesMatchGatheredLattice(t *testing.T) {
	e, err := New(Config{Rows: 64, Cols: 128, GridR: 2, GridC: 2, Temperature: 2.6, Seed: 5,
		Initial: ising.NewRandomLattice(64, 128, rng.New(5))})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(4)
	l := e.Lattice()
	if got, want := e.Magnetization(), l.Magnetization(); got != want {
		t.Errorf("Magnetization %v != lattice %v", got, want)
	}
	if got, want := e.Energy(), l.Energy(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Energy %v != lattice %v", got, want)
	}
	for _, rc := range [][2]int{{0, 0}, {31, 63}, {32, 64}, {63, 127}} {
		if got, want := e.Spin(rc[0], rc[1]), l.At(rc[0], rc[1]); got != want {
			t.Errorf("Spin(%d,%d) = %d, lattice %d", rc[0], rc[1], got, want)
		}
	}
}

// TestObservableCacheFollowsState: the step-stamped observable caches must
// not outlive the spins they were computed from. Restoring a different
// snapshot taken at the same step, and scattering a new lattice without a
// sweep, must both be seen by the next Energy and Magnetization.
func TestObservableCacheFollowsState(t *testing.T) {
	cfg := Config{Rows: 16, Cols: 128, GridR: 2, GridC: 2, Temperature: 2.2, Seed: 3}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Initial = ising.NewRandomLattice(cfg.Rows, cfg.Cols, rng.New(4))
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	other.Run(3)
	e.Energy()
	e.Magnetization()
	snap, err := other.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	l := other.Lattice()
	if got, want := e.Magnetization(), l.Magnetization(); got != want {
		t.Errorf("after Restore at the same step: Magnetization %v, restored lattice %v", got, want)
	}
	if got, want := e.Energy(), l.Energy(); math.Abs(got-want) > 1e-12 {
		t.Errorf("after Restore at the same step: Energy %v, restored lattice %v", got, want)
	}

	checker := ising.NewLattice(cfg.Rows, cfg.Cols)
	for i := range checker.Spins {
		if (i/cfg.Cols+i%cfg.Cols)%2 == 1 {
			checker.Spins[i] = -1
		}
	}
	if err := e.SetLattice(checker); err != nil {
		t.Fatal(err)
	}
	if m, en := e.Magnetization(), e.Energy(); m != 0 || en != 2*ising.J {
		t.Errorf("after SetLattice(checkerboard): m=%v e=%v, want 0 and %v", m, en, 2*ising.J)
	}
}

// TestNarrowRowRunsMatchReference pins the run form of the row kernel on
// the lattices it changes most: rows of one and three words, whose accept
// masks the kernel draws for up to 64 and 21 rows per Philox call. Each
// engine — one band, three bands that split the runs unevenly, and pod
// grids whose shards are one or three words wide — must match the naive
// UpdateRowRef replayed row by row over the whole lattice.
func TestNarrowRowRunsMatchReference(t *testing.T) {
	cases := []struct {
		rows, cols, gridR, gridC, workers int
	}{
		{64, 64, 1, 1, 1},
		{64, 64, 1, 1, 3},
		{64, 64, 2, 1, 0},
		{96, 192, 1, 1, 1},
		{96, 192, 1, 1, 3},
		{96, 192, 2, 3, 0},
		{96, 384, 2, 2, 0},
	}
	const temp, seed, sweeps = 2.3, 29, 4
	for _, tc := range cases {
		e, err := New(Config{
			Rows: tc.rows, Cols: tc.cols, GridR: tc.gridR, GridC: tc.gridC, Workers: tc.workers,
			Temperature: temp, Seed: seed,
			Initial: ising.NewRandomLattice(tc.rows, tc.cols, rng.New(seed)),
		})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%dx%d grid %dx%d workers %d", tc.rows, tc.cols, tc.gridR, tc.gridC, tc.workers)
		W := tc.cols / WordBits
		ref := globalWords(e)
		k := multispin.NewKernel(temp, seed, false)
		row := func(r int) []uint64 { return ref[r*W : (r+1)*W] }
		for sweep := 0; sweep < sweeps; sweep++ {
			step := e.Step()
			e.Sweep()
			for parity := 0; parity < 2; parity++ {
				for r := 0; r < tc.rows; r++ {
					cur := row(r)
					k.UpdateRowRef(cur, row((r-1+tc.rows)%tc.rows), row((r+1)%tc.rows), cur[W-1], cur[0],
						r, 0, parity, step+uint64(parity))
				}
			}
			got := globalWords(e)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: sweep %d word %d = %#x, reference replay %#x", label, sweep, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestBlockHandoffMatchesReference pins the one-call-per-block handoff on
// the shapes TestNarrowRowRunsMatchReference leaves out: two-word rows (32
// rows per draw) on one band and on three bands, and a 2x2 pod of one-word
// shards (128x128), whose blocks read every row's west and east neighbours
// from the received halo columns. Each must match the naive UpdateRowRef
// replayed row by row over the whole lattice.
func TestBlockHandoffMatchesReference(t *testing.T) {
	cases := []struct {
		rows, cols, gridR, gridC, workers int
	}{
		{64, 128, 1, 1, 1},
		{64, 128, 1, 1, 3},
		{128, 128, 2, 2, 0},
	}
	const temp, seed, sweeps = 2.3, 31, 4
	for _, tc := range cases {
		e, err := New(Config{
			Rows: tc.rows, Cols: tc.cols, GridR: tc.gridR, GridC: tc.gridC, Workers: tc.workers,
			Temperature: temp, Seed: seed,
			Initial: ising.NewRandomLattice(tc.rows, tc.cols, rng.New(seed)),
		})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%dx%d grid %dx%d workers %d", tc.rows, tc.cols, tc.gridR, tc.gridC, tc.workers)
		W := tc.cols / WordBits
		ref := globalWords(e)
		k := multispin.NewKernel(temp, seed, false)
		row := func(r int) []uint64 { r = (r + tc.rows) % tc.rows; return ref[r*W : (r+1)*W] }
		for sweep := 0; sweep < sweeps; sweep++ {
			step := e.Step()
			e.Sweep()
			for parity := 0; parity < 2; parity++ {
				for r := 0; r < tc.rows; r++ {
					cur := row(r)
					k.UpdateRowRef(cur, row(r-1), row(r+1), cur[W-1], cur[0], r, 0, parity, step+uint64(parity))
				}
			}
			got := globalWords(e)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: sweep %d word %d = %#x, reference replay %#x", label, sweep, i, got[i], ref[i])
				}
			}
		}
	}
}

// globalWords copies an engine's packed lattice in global row-major order.
func globalWords(e *Engine) []uint64 {
	var out []uint64
	e.EachRow(func(_, _ int, words []uint64) { out = append(out, words...) })
	return out
}
