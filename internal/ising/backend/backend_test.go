package backend_test

import (
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/gpusim"
	"tpuising/internal/sweep"
)

// TestEveryBackendConstructs builds every registered engine on a lattice all
// of them accept and runs a few sweeps through the interface.
func TestEveryBackendConstructs(t *testing.T) {
	for _, name := range backend.Names() {
		eng, err := backend.New(name, backend.Config{Rows: 64, Cols: 64, Temperature: 2.5, Seed: 1})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got, err := backend.Canonical(eng.Name()); err != nil || got != name {
			t.Fatalf("New(%q).Name() = %q (canonical %q, %v)", name, eng.Name(), got, err)
		}
		eng.Sweep()
		eng.Sweep()
		if eng.Step() != 4 {
			t.Fatalf("%s: Step() = %d after 2 sweeps, want 4", name, eng.Step())
		}
		if m := eng.Magnetization(); m < -1 || m > 1 {
			t.Fatalf("%s: magnetisation %v out of range", name, m)
		}
		if e := eng.Energy(); e < -2 || e > 2 {
			t.Fatalf("%s: energy %v out of range", name, e)
		}
	}
}

// TestAliasesAndErrors exercises name resolution and the error paths.
func TestAliasesAndErrors(t *testing.T) {
	for alias, want := range map[string]string{
		"serial": "checkerboard", "cpu": "checkerboard",
		"parallel": "gpusim", "GPU": "gpusim",
		" MultiSpin ": "multispin", "tpu": "tpu",
		"sharded-ensemble": "sharded",
	} {
		got, err := backend.Canonical(alias)
		if err != nil || got != want {
			t.Fatalf("Canonical(%q) = %q, %v; want %q", alias, got, err, want)
		}
	}
	// multispin-shared was removed: its name is as unknown as any other.
	for _, name := range []string{"warp-drive", "multispin-shared"} {
		_, err := backend.New(name, backend.Config{Rows: 64, Cols: 64})
		if err == nil || !strings.Contains(err.Error(), backend.List()) {
			t.Fatalf("New(%q) = %v, want an error listing the registry", name, err)
		}
	}
	if _, err := backend.New("multispin", backend.Config{Rows: 63, Cols: 64}); err == nil {
		t.Fatal("multispin accepted odd rows")
	}
	if _, err := backend.New("gpusim", backend.Config{Rows: 63, Cols: 63}); err == nil {
		t.Fatal("gpusim accepted odd dimensions (row-band races on an odd torus)")
	}
	if _, err := backend.New("tpu", backend.Config{Rows: 0, Cols: 64}); err == nil {
		t.Fatal("zero rows accepted")
	}
}

// measureBackend equilibrates one engine and returns the sample means of |m|
// and the energy per spin.
func measureBackend(t *testing.T, name string, temp float64, burnIn, samples int) (absM, energy float64) {
	t.Helper()
	points, err := sweep.Run(sweep.Config{
		Temperatures: []float64{temp},
		BurnIn:       burnIn,
		Samples:      samples,
	}, func(temperature float64) (ising.Backend, error) {
		return backend.New(name, backend.Config{
			Rows: 64, Cols: 64, Temperature: temperature, Seed: 2026,
		})
	})
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return points[0].AbsMagnetization, points[0].Energy
}

// TestCrossBackendPhysicsAgreement is the cross-backend physics test: the
// serial checkerboard reference and the bit-packed multispin engine simulate
// a 64x64 lattice at T=2.0 (ordered phase) and T=3.5 (disordered phase) and
// must agree on mean |m| and mean energy per spin within statistical
// tolerance; at T=2.0 both must also sit near the exact Onsager values.
func TestCrossBackendPhysicsAgreement(t *testing.T) {
	const burnIn, samples = 400, 1600
	for _, tc := range []struct {
		temp       float64
		tolCross   float64 // allowed |serial - multispin| difference
		checkExact bool
		tolExact   float64 // allowed distance from the infinite-lattice values
	}{
		{temp: 2.0, tolCross: 0.02, checkExact: true, tolExact: 0.03},
		{temp: 3.5, tolCross: 0.03},
	} {
		mSerial, eSerial := measureBackend(t, "checkerboard", tc.temp, burnIn, samples)
		mMulti, eMulti := measureBackend(t, "multispin", tc.temp, burnIn, samples)
		if d := math.Abs(mSerial - mMulti); d > tc.tolCross {
			t.Errorf("T=%.1f: |m| disagrees: checkerboard %.4f vs multispin %.4f (diff %.4f > %.4f)",
				tc.temp, mSerial, mMulti, d, tc.tolCross)
		}
		if d := math.Abs(eSerial - eMulti); d > tc.tolCross {
			t.Errorf("T=%.1f: E/spin disagrees: checkerboard %.4f vs multispin %.4f (diff %.4f > %.4f)",
				tc.temp, eSerial, eMulti, d, tc.tolCross)
		}
		if tc.checkExact {
			exactE := ising.ExactEnergyPerSpin(tc.temp)
			exactM := ising.OnsagerMagnetization(tc.temp)
			for _, m := range []struct {
				name    string
				absM, e float64
			}{{"checkerboard", mSerial, eSerial}, {"multispin", mMulti, eMulti}} {
				if d := math.Abs(m.e - exactE); d > tc.tolExact {
					t.Errorf("T=%.1f: %s E/spin %.4f is %.4f from Onsager %.4f", tc.temp, m.name, m.e, d, exactE)
				}
				if d := math.Abs(m.absM - exactM); d > tc.tolExact {
					t.Errorf("T=%.1f: %s |m| %.4f is %.4f from Onsager %.4f", tc.temp, m.name, m.absM, d, exactM)
				}
			}
		}
	}
}

// latticeHash is an FNV-1a hash of a lattice's spins.
func latticeHash(l *ising.Lattice) uint64 {
	h := fnv.New64a()
	for _, s := range l.Spins {
		h.Write([]byte{byte(s)})
	}
	return h.Sum64()
}

// TestDeterminismGolden pins the chains themselves: a fixed seed and config
// must reproduce a fixed final-configuration hash on every host route a
// refactor of the engines could move — single chains (cold, hot with a
// band-splitting worker count), a 2x2 pod grid, and
// lane-packed batches of 64, 8 and 20 lanes (the last two built directly,
// below NewBatch's packed threshold; 20 lanes pads the kernel to a vector
// group) — at every GOMAXPROCS value. The
// hashes are the engines' packed-word FNV-1a hashes, so a pinned value also
// pins the snapshot spin bytes a checkpoint stores. The ParallelSweep
// baseline is checked for GOMAXPROCS independence only.
func TestDeterminismGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const sweeps = 20
	type hasher interface{ Hash() uint64 }
	base := backend.Config{Rows: 64, Cols: 128, Temperature: 2.3, Seed: 11}
	with := func(f func(*backend.Config)) backend.Config { c := base; f(&c); return c }
	pod := with(func(c *backend.Config) { c.GridR, c.GridC, c.Hot = 2, 2, true })
	for _, tc := range []struct {
		label, name string
		cfg         backend.Config
		lanes       int  // 0 = one chain
		packed      bool // build the lane-packed engine directly
		want        uint64
	}{
		{"multispin cold", "multispin", base, 0, false, 0x82f9ddbefd71bf73},
		{"multispin hot, 3 workers", "multispin", with(func(c *backend.Config) { c.Hot, c.Workers = true, 3 }), 0, false, 0x9186f7c96dc3a9bd},
		{"sharded 2x2", "sharded", pod, 0, false, 0x9186f7c96dc3a9bd},
		{"multispin batch, 64 lanes", "multispin", with(func(c *backend.Config) { c.Hot = true }), 64, false, 0xc12a749636ee720a},
		{"multispin batch, 8 lanes", "multispin", base, 8, true, 0x9920243d8915802d},
		{"multispin batch, 20 lanes", "multispin", with(func(c *backend.Config) { c.Hot = true }), 20, true, 0x6df178eedde8e951},
		{"sharded 2x2 batch, 64 lanes", "sharded", pod, 64, false, 0xc12a749636ee720a},
	} {
		for _, procs := range []int{1, 2, 4, 4} { // repeated value = repeated run
			runtime.GOMAXPROCS(procs)
			var eng interface {
				Sweep()
				Step() uint64
			}
			var err error
			switch {
			case tc.lanes == 0:
				eng, err = backend.New(tc.name, tc.cfg)
			case tc.packed:
				eng = packedBatch(t, tc.cfg, uniform(tc.lanes, tc.cfg.Temperature))
			default:
				eng, err = backend.NewBatch(tc.name, tc.cfg, tc.lanes)
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.label, err)
			}
			for i := 0; i < sweeps; i++ {
				eng.Sweep()
			}
			h, ok := eng.(hasher)
			if !ok {
				t.Fatalf("%s: engine %T has no Hash", tc.label, eng)
			}
			if got := h.Hash(); got != tc.want || eng.Step() != 2*sweeps {
				t.Fatalf("%s: GOMAXPROCS=%d produced hash %#x at step %d, want %#x at step %d",
					tc.label, procs, got, eng.Step(), tc.want, 2*sweeps)
			}
		}
	}

	var want uint64
	for i, procs := range []int{1, 2, 4, 4} {
		runtime.GOMAXPROCS(procs)
		s := gpusim.NewSampler(ising.NewLattice(64, 128), 2.3, 11, 0)
		s.Run(sweeps)
		if h := latticeHash(s.Lattice); i == 0 {
			want = h
		} else if h != want {
			t.Fatalf("gpusim: GOMAXPROCS=%d produced hash %x, want %x", procs, h, want)
		}
	}
}

// TestQuenchOrdersLocally: the multispin chain is not bit-identical to the
// checkerboard chain (different random mapping), but a hot lattice quenched
// far below Tc must order locally in every backend -- the energy drops close
// to the ground state even though coarsening arrests in striped domains that
// keep |m| small. This pins the energy sign conventions through the Backend
// interface.
func TestQuenchOrdersLocally(t *testing.T) {
	for _, name := range []string{"checkerboard", "multispin"} {
		eng, err := backend.New(name, backend.Config{Rows: 64, Cols: 64, Temperature: 0.5, Seed: 3, Hot: true})
		if err != nil {
			t.Fatal(err)
		}
		if e := eng.Energy(); math.Abs(e) > 0.2 {
			t.Errorf("%s: hot start E/spin = %.3f, want ~0", name, e)
		}
		for i := 0; i < 300; i++ {
			eng.Sweep()
		}
		if e := eng.Energy(); e > -1.7 {
			t.Errorf("%s: E/spin = %.3f after quench to T=0.5, want near -2", name, e)
		}
	}
}

// newMultispin64 is the construction a small service job pays: a 64x64
// multispin chain on one row band, so the allocation count does not depend
// on GOMAXPROCS.
func newMultispin64() (ising.Backend, error) {
	return backend.New("multispin", backend.Config{Rows: 64, Cols: 64, Temperature: 2.5, Seed: 1, Workers: 1})
}

// TestNewMultispinAllocs bounds the allocations of a one-shard chain's
// construction: the single core runs no pod exchange, so it must not pay
// for a simulated pod (mesh, fabric, core models) up front.
func TestNewMultispinAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := newMultispin64(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("backend.New(multispin, 64x64) made %v allocations, want at most 10", allocs)
	}
}

// BenchmarkNewMultispin64 times the construction of a 64x64 multispin chain
// (run with -benchmem for its allocations).
func BenchmarkNewMultispin64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := newMultispin64(); err != nil {
			b.Fatal(err)
		}
	}
}
