package backend

import (
	"bytes"
	"testing"

	"tpuising/internal/ising"
)

// snapshotBackends are the registry engines that implement ising.Snapshotter.
var snapshotBackends = []string{"checkerboard", "gpusim", "multispin", "sharded"}

// snapshotCases are the engine configurations of the resume test: every
// snapshottable engine on a lattice it accepts, with the sharded engine on a
// real 2x2 grid — and its resume target on a *different* grid, because the
// snapshot is in whole-lattice coordinates and the shard grid is an
// execution detail.
var snapshotCases = []struct {
	name         string
	cfg, resumed Config
}{
	{"checkerboard", Config{Rows: 16, Cols: 64}, Config{Rows: 16, Cols: 64}},
	{"gpusim", Config{Rows: 16, Cols: 64}, Config{Rows: 16, Cols: 64}},
	{"multispin", Config{Rows: 16, Cols: 64}, Config{Rows: 16, Cols: 64}},
	{"sharded", Config{Rows: 16, Cols: 128, GridR: 2, GridC: 2}, Config{Rows: 16, Cols: 128}},
}

// TestSnapshotResumeBitIdentical checks the checkpoint/restore contract for
// every snapshottable engine: a chain snapshotted at sweep K and restored
// into a freshly constructed engine finishes the run bit-identically to an
// uninterrupted chain — same spins, same step counter, same observables.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	const total, cut = 40, 17
	for _, tc := range snapshotCases {
		name := tc.name
		cfg := tc.cfg
		cfg.Temperature, cfg.Seed, cfg.Hot = 2.4, 99, true
		full, err := New(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		part, err := New(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < total; i++ {
			full.Sweep()
		}
		for i := 0; i < cut; i++ {
			part.Sweep()
		}
		snap, err := part.(ising.Snapshotter).Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		// Round-trip through the wire format, as the service's checkpoint
		// files do, and restore into an engine built fresh from the registry
		// with a different seed and temperature: Restore must overwrite both.
		decoded, err := ising.DecodeSnapshot(ising.EncodeSnapshot(snap))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		rcfg := tc.resumed
		rcfg.Temperature, rcfg.Seed = 3.1, 7
		resumed, err := New(name, rcfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := resumed.(ising.Snapshotter).Restore(decoded); err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		for i := cut; i < total; i++ {
			resumed.Sweep()
		}
		if resumed.Step() != full.Step() {
			t.Fatalf("%s: resumed step %d, uninterrupted %d", name, resumed.Step(), full.Step())
		}
		if resumed.Magnetization() != full.Magnetization() || resumed.Energy() != full.Energy() {
			t.Fatalf("%s: resumed observables (m=%v, e=%v) differ from uninterrupted (m=%v, e=%v)",
				name, resumed.Magnetization(), resumed.Energy(), full.Magnetization(), full.Energy())
		}
		snapFull, err := full.(ising.Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snapResumed, err := resumed.(ising.Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ising.EncodeSnapshot(snapFull), ising.EncodeSnapshot(snapResumed)) {
			t.Fatalf("%s: resumed chain state is not byte-identical to the uninterrupted chain", name)
		}
	}
}

// TestSnapshotRestoreRejectsMismatches checks the shared validation: wrong
// engine type and wrong lattice size must be refused.
func TestSnapshotRestoreRejectsMismatches(t *testing.T) {
	cb, _ := New("checkerboard", Config{Rows: 8, Cols: 8, Temperature: 2.0, Seed: 1})
	ms, _ := New("multispin", Config{Rows: 8, Cols: 64, Temperature: 2.0, Seed: 1})
	cbSnap, err := cb.(ising.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.(ising.Snapshotter).Restore(cbSnap); err == nil {
		t.Fatal("multispin must refuse a checkerboard snapshot")
	}
	small, _ := New("checkerboard", Config{Rows: 4, Cols: 4, Temperature: 2.0, Seed: 1})
	if err := small.(ising.Snapshotter).Restore(cbSnap); err == nil {
		t.Fatal("restore must refuse a snapshot of a different lattice size")
	}
	// A snapshot of the removed shared-random mode must never resume as a
	// per-site chain.
	sharedSnap, err := ms.(ising.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sharedSnap.Backend = "multispin-shared"
	if err := ms.(ising.Snapshotter).Restore(sharedSnap); err == nil {
		t.Fatal("multispin must refuse a multispin-shared snapshot")
	}
}

// TestShardedSnapshotMatchesMultispin: the sharded engine is bit-identical
// to multispin at the same seed, and its snapshot gathers the shards into
// whole-lattice word order — so the two engines' snapshots must carry
// identical spin bytes, step and RNG state (only the backend name differs).
func TestShardedSnapshotMatchesMultispin(t *testing.T) {
	cfg := Config{Rows: 8, Cols: 128, Temperature: 2.3, Seed: 31}
	scfg := cfg
	scfg.GridR, scfg.GridC = 2, 2
	ms, err := New("multispin", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := New("sharded", scfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		ms.Sweep()
		sh.Sweep()
	}
	msSnap, err := ms.(ising.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	shSnap, err := sh.(ising.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msSnap.Spins, shSnap.Spins) {
		t.Fatal("sharded snapshot spins differ from the bit-identical multispin chain's")
	}
	if msSnap.Step != shSnap.Step || !bytes.Equal(msSnap.RNG, shSnap.RNG) {
		t.Fatal("sharded snapshot step/RNG differ from the multispin chain's")
	}
	if shSnap.Backend != "sharded" {
		t.Fatalf("sharded snapshot names backend %q", shSnap.Backend)
	}
}

// TestPackedLayoutsAgree checks the documented invariant that the multispin
// word dump and ising.Lattice.PackSpins produce the same bytes for the same
// configuration, so one snapshot spin format serves packed and unpacked
// engines alike.
func TestPackedLayoutsAgree(t *testing.T) {
	cfg := Config{Rows: 6, Cols: 128, Temperature: 2.3, Seed: 5, Hot: true}
	ms, err := New("multispin", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ms.Sweep()
	}
	snap, err := ms.(ising.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	type latticer interface{ Lattice() *ising.Lattice }
	unpacked := ms.(latticer).Lattice()
	if !bytes.Equal(snap.Spins, unpacked.PackSpins()) {
		t.Fatal("multispin snapshot bytes differ from Lattice.PackSpins of the same configuration")
	}
}

// TestPodSnapshotsPinnedToMultispin pins the checkpoint layout of the pod
// engine: after the same hot-start run, its snapshot must carry exactly the
// spin bytes, step and RNG key of the bit-identical multispin chain, so
// checkpoints written by any earlier build stay resumable.
func TestPodSnapshotsPinnedToMultispin(t *testing.T) {
	cfg := Config{Rows: 64, Cols: 128, Temperature: 2.3, Seed: 7, Hot: true}
	snapAfter := func(name string, cfg Config) *ising.Snapshot {
		t.Helper()
		b, err := New(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 5; i++ {
			b.Sweep()
		}
		snap, err := b.(ising.Snapshotter).Snapshot()
		if err != nil {
			t.Fatalf("%s: Snapshot: %v", name, err)
		}
		return snap
	}
	want := snapAfter("multispin", cfg)
	pod := cfg
	pod.GridR, pod.GridC = 2, 2
	got := snapAfter("sharded", pod)
	if !bytes.Equal(got.Spins, want.Spins) {
		t.Error("sharded: snapshot spins differ from multispin's")
	}
	if got.Step != want.Step || !bytes.Equal(got.RNG, want.RNG) {
		t.Errorf("sharded: snapshot step %d / RNG %x, multispin %d / %x", got.Step, got.RNG, want.Step, want.RNG)
	}
}
