package backend_test

import (
	"fmt"
	"strings"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/shardedensemble"
)

// registryClaims declares, for every registered engine, whether it claims
// ising.Snapshotter. A newly registered backend fails this test until it is
// added here — forcing its author to decide (and wire) checkpoint support —
// and a backend that gains or loses Snapshotter without this table noticing
// fails too.
var registryClaims = map[string]struct{ snapshotter bool }{
	"checkerboard":     {snapshotter: true},
	"gpusim":           {snapshotter: true},
	"multispin":        {snapshotter: true},
	"multispin-shared": {snapshotter: true},
	"sharded":          {snapshotter: true},
	"tpu":              {snapshotter: false},
}

// TestRegistryContracts asserts the interface contracts of every registered
// name: it constructs, implements ising.Tempered (the replica-exchange layer
// and the batch adapter rely on every engine having N and SetTemperature),
// and implements ising.Snapshotter exactly where claimed. It also pins the
// claims table to the registry in both directions and checks List() names
// every engine, so the next backend someone forgets to wire is caught here.
func TestRegistryContracts(t *testing.T) {
	names := backend.Names()
	if len(names) != len(registryClaims) {
		t.Errorf("registry has %d names, claims table has %d — keep them in sync", len(names), len(registryClaims))
	}
	listing := backend.List()
	for _, name := range names {
		claim, ok := registryClaims[name]
		if !ok {
			t.Errorf("backend %q is registered but not in the claims table — declare whether it snapshots", name)
			continue
		}
		if !strings.Contains(listing, name) {
			t.Errorf("List() %q does not name backend %q", listing, name)
		}
		eng, err := backend.New(name, backend.Config{Rows: 16, Cols: 64, Temperature: 2.5, Seed: 1})
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if _, ok := eng.(ising.Tempered); !ok {
			t.Errorf("backend %q does not implement ising.Tempered (tempering and batching need it)", name)
		}
		_, snaps := eng.(ising.Snapshotter)
		if snaps != claim.snapshotter {
			t.Errorf("backend %q: implements ising.Snapshotter = %v, claims table says %v", name, snaps, claim.snapshotter)
		}
		// Every registered engine must batch (the packed multispin and sharded
		// fast paths are exercised by their own tests).
		if _, err := backend.NewBatch(name, backend.Config{Rows: 16, Cols: 64, Temperature: 2.5, Seed: 1}, 2); err != nil {
			t.Errorf("NewBatch(%q, 2): %v", name, err)
		}
	}
	for name := range registryClaims {
		if _, err := backend.Canonical(name); err != nil {
			t.Errorf("claims table names %q, which the registry does not know: %v", name, err)
		}
	}
}

// TestNewBatchSelectsPackedEngine: NewBatch's route, on both sides of each
// lane threshold. A multispin batch (the one-shard grid) and a sharded batch
// run lane-packed from 32 lanes on one shard and from 16 on a pod grid, up to
// the 64-lane word; everything else comes back as the generic adapter under
// the backend's own name, and a sharded batch takes exactly the grids a
// single sharded chain takes.
func TestNewBatchSelectsPackedEngine(t *testing.T) {
	one := backend.Config{Rows: 8, Cols: 64, Temperature: 2.4, Seed: 1}
	pod := backend.Config{Rows: 8, Cols: 128, GridR: 2, GridC: 2, Temperature: 2.4, Seed: 1}
	gridded := one
	gridded.GridR, gridded.GridC = 2, 2 // multispin ignores the grid
	for _, tc := range []struct {
		name  string
		cfg   backend.Config
		lanes int
		want  string
	}{
		{"multispin", one, 1, "multispin"},
		{"multispin", one, 4, "multispin"},
		{"multispin", one, 31, "multispin"},
		{"multispin", one, 32, "ensemble"},
		{"multispin", one, 64, "ensemble"},
		{"multispin", one, 65, "multispin"},
		{"multispin", gridded, 32, "ensemble"},
		{"sharded", one, 31, "sharded"},
		{"sharded", one, 32, "sharded-ensemble"},
		{"sharded", pod, 4, "sharded"},
		{"sharded", pod, 15, "sharded"},
		{"sharded", pod, 16, "sharded-ensemble"},
		{"sharded", pod, 64, "sharded-ensemble"},
		{"sharded", pod, 65, "sharded"},
		{"multispin-shared", one, 64, "multispin-shared"},
		{"checkerboard", one, 64, "checkerboard"},
	} {
		b, err := backend.NewBatch(tc.name, tc.cfg, tc.lanes)
		if err != nil {
			t.Fatalf("%s %dx%d grid, %d lanes: %v", tc.name, tc.cfg.GridR, tc.cfg.GridC, tc.lanes, err)
		}
		if b.Name() != tc.want || b.Lanes() != tc.lanes {
			t.Errorf("%s %dx%d grid, %d lanes: engine %q with %d lanes, want %q",
				tc.name, tc.cfg.GridR, tc.cfg.GridC, tc.lanes, b.Name(), b.Lanes(), tc.want)
		}
	}
	// 32-column shards are finer than a sharded chain's whole words: the
	// batch is refused at every lane count, like the chain.
	narrow := pod
	narrow.Cols = 64
	if _, err := backend.New("sharded", narrow); err == nil {
		t.Fatal("sharded chain accepted 32-column shards")
	}
	for _, lanes := range []int{4, 16, 64} {
		if _, err := backend.NewBatch("sharded", narrow, lanes); err == nil {
			t.Fatalf("%d-lane sharded batch accepted 32-column shards", lanes)
		}
	}
	if _, err := backend.NewBatch("multispin", one, 0); err == nil {
		t.Fatal("zero-lane batch accepted")
	}
	if _, err := backend.NewBatch("warp-drive", one, 2); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// packedBatch builds the lane-packed engine of a batch or ladder of the
// multispin (one-shard) or sharded backend directly, whatever lane count
// NewBatch's route would send to it.
func packedBatch(tb testing.TB, cfg backend.Config, temps []float64) *shardedensemble.Engine {
	tb.Helper()
	e, err := shardedensemble.New(shardedensemble.Config{
		Rows: cfg.Rows, Cols: cfg.Cols, GridR: cfg.GridR, GridC: cfg.GridC, Lanes: len(temps),
		Temperatures: temps, Seed: cfg.Seed, Workers: cfg.Workers, Hot: cfg.Hot,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// adapterBatch builds the generic adapter over standalone chains of the named
// backend, lane L seeded ising.LaneSeed(cfg.Seed, L) and run at temps[L].
func adapterBatch(tb testing.TB, name string, cfg backend.Config, temps []float64) ising.BatchBackend {
	tb.Helper()
	lanes := make([]ising.Backend, len(temps))
	for i, temp := range temps {
		c := cfg
		c.Temperature, c.Seed = temp, ising.LaneSeed(cfg.Seed, i)
		var err error
		if lanes[i], err = backend.New(name, c); err != nil {
			tb.Fatal(err)
		}
	}
	b, err := ising.NewBatchOf(lanes, cfg.Workers)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// uniform returns n copies of temperature t.
func uniform(n int, t float64) []float64 {
	temps := make([]float64, n)
	for i := range temps {
		temps[i] = t
	}
	return temps
}

// TestNewBatchPackedMatchesAdapter: the lane-packed engine and the generic
// adapter over standalone chains of the same backend are the same simulation
// — NewBatch choosing one is invisible in every observable. Each case builds
// the packed side directly, so lane counts that route to the adapter
// (including ones the kernel pads to a vector group) still exercise the
// packed engine: one-shard batches of 3 and 20 lanes, a 4-rung one-shard
// ladder, and 16- and 64-lane batches on a 2x2 sharded grid.
func TestNewBatchPackedMatchesAdapter(t *testing.T) {
	one := backend.Config{Rows: 8, Cols: 64, Seed: 9, Hot: true}
	pod := backend.Config{Rows: 8, Cols: 128, GridR: 2, GridC: 2, Seed: 9, Hot: true}
	for _, tc := range []struct {
		label, name string
		cfg         backend.Config
		temps       []float64
	}{
		{"one shard, 3 lanes", "multispin", one, uniform(3, 2.3)},
		{"one shard, 20 lanes", "multispin", one, uniform(20, 2.3)},
		{"one shard, 4-rung ladder", "multispin", one, []float64{1.9, 2.2, 2.5, 2.9}},
		{"2x2 pod, 16 lanes", "sharded", pod, uniform(16, 2.3)},
		{"2x2 pod, 64 lanes", "sharded", pod, uniform(64, 2.3)},
	} {
		packed := packedBatch(t, tc.cfg, tc.temps)
		adapter := adapterBatch(t, tc.name, tc.cfg, tc.temps)
		for i := 0; i < 10; i++ {
			packed.Sweep()
			adapter.Sweep()
		}
		pm, am := packed.Magnetizations(), adapter.Magnetizations()
		pe, ae := packed.Energies(), adapter.Energies()
		for i := range pm {
			if pm[i] != am[i] || pe[i] != ae[i] {
				t.Fatalf("%s lane %d: packed (m=%v, e=%v) differs from adapter (m=%v, e=%v)", tc.label, i, pm[i], pe[i], am[i], ae[i])
			}
		}
	}
}

// BenchmarkBatchRoute times one sweep of each side of NewBatch's packed
// route at the shapes and lane counts that set its thresholds: the
// lane-packed engine and the adapter of one bit-packed chain per lane, on one
// shard (multispin) and on a 2x2 pod grid (sharded), each shard on one row
// band. Compare the packed and adapter lines of one shape and lane count,
// pinned to one core with -cpu 1.
func BenchmarkBatchRoute(b *testing.B) {
	for _, sh := range []struct {
		name       string
		grid, size int
	}{{"multispin", 1, 64}, {"multispin", 1, 256}, {"multispin", 1, 512}, {"sharded", 2, 128}, {"sharded", 2, 256}} {
		cfg := backend.Config{Rows: sh.size, Cols: sh.size, GridR: sh.grid, GridC: sh.grid, Seed: 1, Workers: 1}
		for _, lanes := range []int{4, 8, 16, 24, 32, 64} {
			temps := uniform(lanes, 2.3)
			shape := fmt.Sprintf("%dx%d_%d/lanes=%d", sh.grid, sh.grid, sh.size, lanes)
			b.Run(shape+"/packed", func(b *testing.B) { benchSweeps(b, packedBatch(b, cfg, temps)) })
			b.Run(shape+"/adapter", func(b *testing.B) { benchSweeps(b, adapterBatch(b, sh.name, cfg, temps)) })
		}
	}
}

func benchSweeps(b *testing.B, batch ising.BatchBackend) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Sweep()
	}
}
