package sweep

import (
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/tempering"
)

// TestRunTemperingPreservesGridOrder passes a descending grid and checks the
// points come back in the caller's order while the ladder itself ran
// ascending.
func TestRunTemperingPreservesGridOrder(t *testing.T) {
	temps := []float64{3.5, 2.6, 1.8} // deliberately descending
	points, rep := RunTempering(Config{
		Temperatures: temps,
		BurnIn:       10,
		Samples:      20,
	}, 2, 1, func(temperature float64) ising.Backend {
		b, err := backend.New("multispin", backend.Config{
			Rows: 16, Cols: 64, Temperature: temperature, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
	if len(points) != len(temps) {
		t.Fatalf("got %d points, want %d", len(points), len(temps))
	}
	for i, p := range points {
		if p.Temperature != temps[i] {
			t.Errorf("point %d at T=%g, want the caller's grid order %g", i, p.Temperature, temps[i])
		}
		if p.Samples != 20 {
			t.Errorf("point %d has %d samples, want 20", i, p.Samples)
		}
	}
	// Physics: far below Tc the chain magnetises, far above it does not.
	if points[2].AbsMagnetization < 0.9 {
		t.Errorf("|m| at T=1.8 is %.4f, want > 0.9", points[2].AbsMagnetization)
	}
	if points[0].AbsMagnetization > 0.4 {
		t.Errorf("|m| at T=3.5 is %.4f, want < 0.4", points[0].AbsMagnetization)
	}
	// The report's rows are in ladder (ascending) order.
	if rep.Replicas[0].Temperature != 1.8 || rep.Replicas[2].Temperature != 3.5 {
		t.Errorf("report ladder order wrong: %+v", rep.Replicas)
	}
	if rep.Samples != 20 || rep.SwapRounds == 0 {
		t.Errorf("report totals wrong: samples %d, rounds %d", rep.Samples, rep.SwapRounds)
	}
}

// TestRunTemperingMatchesRunAwayFromTc: far from the critical point replica
// exchange must agree with independent chains within error bars (the swap
// move preserves each temperature's stationary distribution).
func TestRunTemperingMatchesRunAwayFromTc(t *testing.T) {
	temps := []float64{1.9, 3.4}
	newBackend := func(temperature float64) ising.Backend {
		b, err := backend.New("multispin", backend.Config{
			Rows: 32, Cols: 64, Temperature: temperature, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cfg := Config{Temperatures: temps, BurnIn: 60, Samples: 120}
	indep := Run(cfg, func(temperature float64) Chain { return newBackend(temperature) })
	tempered, _ := RunTempering(cfg, 3, 5, newBackend)
	for i := range temps {
		diff := indep[i].AbsMagnetization - tempered[i].AbsMagnetization
		if diff < 0 {
			diff = -diff
		}
		tol := 5*(indep[i].AbsMagnetizationErr+tempered[i].AbsMagnetizationErr) + 0.02
		if diff > tol {
			t.Errorf("T=%g: independent |m|=%.4f vs tempered |m|=%.4f (diff %.4f > tol %.4f)",
				temps[i], indep[i].AbsMagnetization, tempered[i].AbsMagnetization, diff, tol)
		}
	}
}

func TestRunTemperingPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunTempering with one temperature should panic")
		}
	}()
	RunTempering(Config{Temperatures: []float64{2.0}, Samples: 1}, 1, 1,
		func(temperature float64) ising.Backend {
			b, _ := backend.New("multispin", backend.Config{Rows: 2, Cols: 64, Temperature: temperature})
			return b
		})
}

// TestReplicaSeedDistinct guards the per-slot seed derivation of tempering
// ladders.
func TestReplicaSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for slot := 0; slot < 64; slot++ {
		s := tempering.ReplicaSeed(9, slot)
		if seen[s] {
			t.Fatalf("slot %d reuses seed %d", slot, s)
		}
		seen[s] = true
	}
}
