package multispin_test

import (
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/ising/sharded"
	"tpuising/internal/rng"
)

// The multispin backends run the kernel on the pod Driver's one-shard grid;
// these tests drive that engine, built the way the registry builds it.

// Config is the engine configuration.
type Config = sharded.Config

// Engine is the engine the multispin backends run on.
type Engine = sharded.Engine

// New builds the engine the registry serves as multispin.
func New(cfg Config) (*Engine, error) {
	cfg.Name = "multispin"
	return sharded.New(cfg)
}

// siteRand returns the 32-bit random consumed by site (r, c) at the given
// colour-step; it is the pure function the bulk kernel
// evaluates four lanes at a time.
func siteRand(k multispin.Kernel, step uint64, r, c int) uint32 {
	j := c >> 1
	ctr := rng.Counter{uint32(step), uint32(step >> 32), uint32(int64(r)), uint32(j >> 2)}
	return rng.Block(ctr, k.Key)[j&3]
}

// words gathers the engine's packed words in whole-lattice row-major order.
func words(e *Engine) []uint64 {
	var out []uint64
	e.EachRow(func(_, _ int, row []uint64) { out = append(out, row...) })
	return out
}

// randomLattice fills a lattice with spins drawn from the given stream.
func randomLattice(rows, cols int, p *rng.Philox) *ising.Lattice {
	l := ising.NewLattice(rows, cols)
	for i := range l.Spins {
		if p.Float32() < 0.5 {
			l.Spins[i] = -1
		}
	}
	return l
}

// referenceUpdateColor is the scalar reference of one colour update: it
// recomputes every accept/reject decision with plain lattice arithmetic and
// the per-site randoms and thresholds of the engine's kernel k.
func referenceUpdateColor(k multispin.Kernel, l *ising.Lattice, parity int, step uint64) {
	before := l.Clone()
	for r := 0; r < l.Rows; r++ {
		for c := 0; c < l.Cols; c++ {
			if (r+c)%2 != parity {
				continue
			}
			d := 0
			s := before.At(r, c)
			for _, nb := range [][2]int{{r - 1, c}, {r + 1, c}, {r, c - 1}, {r, c + 1}} {
				if before.At(nb[0], nb[1]) != s {
					d++
				}
			}
			u := uint64(siteRand(k, step, r, c))
			flip := false
			switch d {
			case 0:
				flip = u < k.T8
			case 1:
				flip = u < k.T4
			default:
				flip = true
			}
			if flip {
				l.Flip(r, c)
			}
		}
	}
}

// TestBitLevelEquivalence is the bit-level property test: for random small
// lattices, temperatures and steps, one bulk colour update must produce
// exactly the accept/reject decisions of the scalar reference given the same
// per-site randoms.
func TestBitLevelEquivalence(t *testing.T) {
	p := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		rows := 2 * (1 + p.Intn(4))                  // 2..8
		cols := multispin.WordBits * (1 + p.Intn(3)) // 64..192
		temp := 1.5 + 2.5*p.Float64()
		e, err := New(Config{
			Rows: rows, Cols: cols, Temperature: temp,
			Seed: uint64(trial)*13 + 1, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		start := randomLattice(rows, cols, p)
		if err := e.SetLattice(start); err != nil {
			t.Fatal(err)
		}
		want := start.Clone()
		step := uint64(p.Intn(1000))
		k := multispin.NewKernel(temp, uint64(trial)*13+1, false)
		for parity := 0; parity < 2; parity++ {
			e.UpdateColor(parity, step+uint64(parity))
			referenceUpdateColor(k, want, parity, step+uint64(parity))
			if got := e.Lattice(); !got.Equal(want) {
				t.Fatalf("trial %d: %dx%d at T=%.3f parity %d: bulk and scalar decisions differ",
					trial, rows, cols, temp, parity)
			}
		}
	}
}

// TestEngineSweepMatchesReferenceKernel drives whole engine sweeps and
// replays them with the reference kernel row by row: the engine's optimized
// hot loop (including its rolling-west and halo-snapshot invariants) is
// bit-identical to the naive kernel applied to the same rows.
func TestEngineSweepMatchesReferenceKernel(t *testing.T) {
	eng, err := New(Config{Rows: 16, Cols: 192, Temperature: 2.4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	// Reference state: same geometry, updated with UpdateRowRef directly.
	ref := words(eng)
	k := multispin.NewKernel(2.4, 99, false)
	W := eng.Cols() / multispin.WordBits
	refRow := func(r int) []uint64 { return ref[r*W : (r+1)*W] }
	for sweep := 0; sweep < 5; sweep++ {
		step := eng.Step()
		eng.Sweep()
		for _, pc := range []struct {
			parity int
			step   uint64
		}{{0, step}, {1, step + 1}} {
			for r := 0; r < eng.Rows(); r++ {
				row := refRow(r)
				north := refRow((r - 1 + eng.Rows()) % eng.Rows())
				south := refRow((r + 1) % eng.Rows())
				k.UpdateRowRef(row, north, south, row[W-1], row[0], r, 0, pc.parity, pc.step)
			}
		}
	}
	got := words(eng)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("engine word %d = %#x, reference replay %#x", i, got[i], ref[i])
		}
	}
}

// TestObservablesMatchLattice checks the bitwise magnetisation and energy
// against the int8 reference on random configurations (exact integers, so
// exact equality is required).
func TestObservablesMatchLattice(t *testing.T) {
	p := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		rows, cols := 2*(1+p.Intn(5)), multispin.WordBits*(1+p.Intn(3))
		l := randomLattice(rows, cols, p)
		e, err := New(Config{Rows: rows, Cols: cols, Temperature: 2.5, Initial: l})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.SumSpins(), l.SumSpins(); got != want {
			t.Fatalf("SumSpins = %d, lattice says %d", got, want)
		}
		if got, want := e.Energy(), l.Energy(); got != want {
			t.Fatalf("Energy = %v, lattice says %v", got, want)
		}
		if !e.Lattice().Equal(l) {
			t.Fatal("Lattice round-trip changed the configuration")
		}
	}
}

// TestDeterminismAcrossWorkers: fixed seed + fixed config must give the same
// final lattice hash regardless of the worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	var want uint64
	for i, workers := range []int{1, 2, 3, 7, 16} {
		e, err := New(Config{Rows: 48, Cols: 128, Temperature: 2.2, Seed: 99, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		e.Run(25)
		h := e.Hash()
		if i == 0 {
			want = h
		} else if h != want {
			t.Fatalf("workers=%d hash %x, workers=1 hash %x", workers, h, want)
		}
	}
}

// TestHotPhaseDecorrelates is a sanity check that the dynamics actually move:
// a cold lattice at very high temperature must lose nearly all magnetisation.
func TestHotPhaseDecorrelates(t *testing.T) {
	e, err := New(Config{Rows: 64, Cols: 64, Temperature: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(50)
	if m := e.Magnetization(); m > 0.2 || m < -0.2 {
		t.Fatalf("magnetisation %v did not decay at T=50", m)
	}
	if e.Step() != 100 {
		t.Fatalf("Step() = %d after 50 sweeps, want 100", e.Step())
	}
}

// TestColdPhaseStaysOrdered: far below Tc a cold lattice must stay close to
// fully magnetised.
func TestColdPhaseStaysOrdered(t *testing.T) {
	e, err := New(Config{Rows: 64, Cols: 64, Temperature: 1.0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(50)
	if m := e.Magnetization(); m < 0.95 {
		t.Fatalf("magnetisation %v decayed at T=1.0", m)
	}
}

// TestConfigValidation exercises the constructor's error paths.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Rows: 3, Cols: 64, Temperature: 2},
		{Rows: 0, Cols: 64, Temperature: 2},
		{Rows: 4, Cols: 60, Temperature: 2},
		{Rows: 4, Cols: 0, Temperature: 2},
		{Rows: 4, Cols: 64, Temperature: -1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
	e, err := New(Config{Rows: 4, Cols: 64})
	if err != nil {
		t.Fatal(err)
	}
	if e.Temperature() != ising.CriticalTemperature() {
		t.Fatalf("zero temperature did not default to Tc")
	}
	if e.Name() != "multispin" {
		t.Fatalf("Name() = %q", e.Name())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewKernel accepted the removed shared-random mode")
			}
		}()
		multispin.NewKernel(2.0, 1, true)
	}()
}

// TestCountsTrackAttempts checks the host work counter.
func TestCountsTrackAttempts(t *testing.T) {
	e, err := New(Config{Rows: 8, Cols: 64, Temperature: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(4)
	if got, want := e.Counts().Ops, int64(4*8*64); got != want {
		t.Fatalf("Counts().Ops = %d, want %d", got, want)
	}
}
