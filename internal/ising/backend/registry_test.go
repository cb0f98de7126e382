package backend_test

import (
	"strings"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
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

// TestNewBatchSelectsPackedEngine: a multispin batch within the packed
// constraints comes back as the lane-packed ensemble engine and a full
// 64-lane sharded batch as the lane-packed pod engine; everything else comes
// back as the generic adapter under the backend's own name, and a sharded
// batch takes exactly the grids a single sharded chain takes.
func TestNewBatchSelectsPackedEngine(t *testing.T) {
	cfg := backend.Config{Rows: 8, Cols: 64, Temperature: 2.4, Seed: 1}
	packed, err := backend.NewBatch("multispin", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if packed.Name() != "ensemble" {
		t.Fatalf("multispin batch engine is %q, want the packed ensemble", packed.Name())
	}
	pod := backend.Config{Rows: 8, Cols: 128, GridR: 2, GridC: 2, Temperature: 2.4, Seed: 1}
	for _, tc := range []struct {
		lanes int
		want  string
	}{{64, "sharded-ensemble"}, {4, "sharded"}, {65, "sharded"}} {
		podBatch, err := backend.NewBatch("sharded", pod, tc.lanes)
		if err != nil {
			t.Fatal(err)
		}
		if podBatch.Name() != tc.want {
			t.Fatalf("%d-lane 2x2 sharded batch engine is %q, want %q", tc.lanes, podBatch.Name(), tc.want)
		}
	}
	// 32-column shards are finer than a sharded chain's whole words: the
	// batch is refused at every lane count, like the chain.
	narrow := pod
	narrow.Cols = 64
	if _, err := backend.New("sharded", narrow); err == nil {
		t.Fatal("sharded chain accepted 32-column shards")
	}
	for _, lanes := range []int{4, 64} {
		if _, err := backend.NewBatch("sharded", narrow, lanes); err == nil {
			t.Fatalf("%d-lane sharded batch accepted 32-column shards", lanes)
		}
	}
	adapter, err := backend.NewBatch("checkerboard", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adapter.Name() != "checkerboard" {
		t.Fatalf("checkerboard batch engine is %q", adapter.Name())
	}
	// Beyond the packed word width, multispin batches fall back to the
	// adapter instead of failing.
	big, err := backend.NewBatch("multispin", cfg, 65)
	if err != nil {
		t.Fatal(err)
	}
	if big.Name() != "multispin" || big.Lanes() != 65 {
		t.Fatalf("65-lane multispin batch: name %q, lanes %d", big.Name(), big.Lanes())
	}
	if _, err := backend.NewBatch("multispin", cfg, 0); err == nil {
		t.Fatal("zero-lane batch accepted")
	}
	if _, err := backend.NewBatch("warp-drive", cfg, 2); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestNewBatchPackedMatchesAdapter: the packed fast paths and the generic
// adapter over standalone chains of the same backend are the same simulation
// — backend.NewBatch choosing one is invisible in every observable. It runs
// for multispin (the lane-packed ensemble) and for a full 64-lane batch on a
// 2x2 sharded grid (the lane-packed pod engine).
func TestNewBatchPackedMatchesAdapter(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		cfg        backend.Config
		lanes      int
	}{
		{"multispin", "ensemble", backend.Config{Rows: 8, Cols: 64, Temperature: 2.3, Seed: 9, Hot: true}, 3},
		{"sharded", "sharded-ensemble", backend.Config{Rows: 8, Cols: 128, GridR: 2, GridC: 2, Temperature: 2.3, Seed: 9, Hot: true}, 64},
	} {
		packed, err := backend.NewBatch(tc.name, tc.cfg, tc.lanes)
		if err != nil {
			t.Fatal(err)
		}
		if packed.Name() != tc.want {
			t.Fatalf("%s batch engine is %q, want %q", tc.name, packed.Name(), tc.want)
		}
		lanes := make([]ising.Backend, tc.lanes)
		for i := range lanes {
			c := tc.cfg
			c.Seed = ising.LaneSeed(tc.cfg.Seed, i)
			if lanes[i], err = backend.New(tc.name, c); err != nil {
				t.Fatal(err)
			}
		}
		adapter, err := ising.NewBatchOf(lanes, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			packed.Sweep()
			adapter.Sweep()
		}
		pm, am := packed.Magnetizations(), adapter.Magnetizations()
		pe, ae := packed.Energies(), adapter.Energies()
		for i := range pm {
			if pm[i] != am[i] || pe[i] != ae[i] {
				t.Fatalf("%s lane %d: packed (m=%v, e=%v) differs from adapter (m=%v, e=%v)", tc.name, i, pm[i], pe[i], am[i], ae[i])
			}
		}
	}
}
