package sweep_test

import (
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/shardedensemble"
	"tpuising/internal/sweep"
)

// TestRunEnsembleMatchesRun: a whole temperature scan run as one batched
// backend (lane i at temperature i, seeded ising.LaneSeed(seed, i)) must
// produce exactly the points of Run over standalone chains with the same
// seeds and schedule — batching a scan is an execution strategy, never a
// physics change. The batch is the lane-packed engine, built directly: a
// 4-lane multispin scan from backend.NewBatchLadder runs on the adapter.
func TestRunEnsembleMatchesRun(t *testing.T) {
	const rows, cols, seed = 8, 64, 17
	temps := []float64{2.0, 2.3, 2.6, 3.0}
	cfg := sweep.Config{Temperatures: temps, BurnIn: 4, Samples: 6, Interval: 2}

	laneOf := make(map[float64]int, len(temps))
	for i, temp := range temps {
		laneOf[temp] = i
	}
	want := sweep.RunBackends(cfg, func(temperature float64) ising.Backend {
		eng, err := backend.New("multispin", backend.Config{
			Rows: rows, Cols: cols, Temperature: temperature,
			Seed: ising.LaneSeed(seed, laneOf[temperature]),
		})
		if err != nil {
			panic(err)
		}
		return eng
	})

	got, err := sweep.RunEnsemble(cfg, func(temperatures []float64) (ising.BatchBackend, error) {
		return shardedensemble.New(shardedensemble.Config{
			Rows: rows, Cols: cols, Lanes: len(temperatures), Temperatures: temperatures, Seed: seed,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("RunEnsemble returned %d points, Run %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs:\nensemble: %+v\nchains:   %+v", i, got[i], want[i])
		}
	}
}

// TestRunEnsembleLaneMismatch: a batch with the wrong lane count is refused.
func TestRunEnsembleLaneMismatch(t *testing.T) {
	_, err := sweep.RunEnsemble(sweep.Config{Temperatures: []float64{2.0, 2.5}, Samples: 1},
		func(temperatures []float64) (ising.BatchBackend, error) {
			return backend.NewBatch("multispin", backend.Config{Rows: 8, Cols: 64, Seed: 1}, 3)
		})
	if err == nil {
		t.Fatal("lane/temperature mismatch accepted")
	}
}
