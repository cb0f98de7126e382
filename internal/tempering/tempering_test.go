package tempering

import (
	"math"
	"reflect"
	"testing"

	"tpuising/internal/interconnect"
	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/sharded"
	"tpuising/internal/perf"
	"tpuising/internal/stats"
	"tpuising/internal/sweep"
)

// multispinLadder returns a newBackend callback building multispin replicas
// of one lattice size with per-slot seeds and the given worker count.
func multispinLadder(t *testing.T, rows, cols int, seed uint64, workers int) func(int, float64) (ising.Backend, error) {
	t.Helper()
	return func(slot int, temperature float64) (ising.Backend, error) {
		return backend.New("multispin", backend.Config{
			Rows: rows, Cols: cols, Temperature: temperature,
			Seed: ReplicaSeed(seed, slot), Workers: workers,
		})
	}
}

// ladder returns n evenly spaced temperatures across the default critical
// window of a rows x cols lattice.
func ladder(rows, cols, n int) []float64 {
	return sweep.CriticalWindow(DefaultWindow(rows*cols, n), n)
}

// TestSwapAcceptanceMatchesAnalyticProbability freezes two replicas (no
// sweeps between swap phases, so their configurations and energies never
// change) and measures the empirical acceptance of the very first swap
// attempt over many seeds against the exact two-replica Metropolis
// probability min(1, exp((beta0-beta1)*(E0-E1))).
func TestSwapAcceptanceMatchesAnalyticProbability(t *testing.T) {
	const trials = 5000
	t0, t1 := 2.0, 2.5
	rows, cols := 2, 64

	// Slot 0 holds the ground state; slot 1 holds the ground state with one
	// spin flipped, so E0 < E1 and the swap is accepted with p < 1.
	flipped := ising.NewLattice(rows, cols)
	flipped.Flip(0, 0)
	newBackend := func(initial *ising.Lattice) func(int, float64) (ising.Backend, error) {
		return func(slot int, temperature float64) (ising.Backend, error) {
			cfg := sharded.Config{Name: "multispin", Rows: rows, Cols: cols, Temperature: temperature, Seed: uint64(slot)}
			if slot == 1 {
				cfg.Initial = initial
			}
			return sharded.New(cfg)
		}
	}

	accepted := 0
	var want float64
	for seed := uint64(0); seed < trials; seed++ {
		ens, err := New(Config{Temperatures: []float64{t0, t1}, Seed: seed},
			newBackend(flipped))
		if err != nil {
			t.Fatal(err)
		}
		if seed == 0 {
			n := float64(ens.Spins())
			e0 := ens.Backend(0).Energy() * n
			e1 := ens.Backend(1).Energy() * n
			delta := (ising.Beta(t0) - ising.Beta(t1)) * (e0 - e1)
			if delta >= 0 {
				t.Fatalf("test setup broken: delta = %g, want a rejected-sometimes swap", delta)
			}
			want = math.Exp(delta)
		}
		ens.AttemptSwaps() // no sweeps first: energies are exactly the constructed ones
		if ens.Permutation()[0] != 0 {
			accepted++
		}
	}
	got := float64(accepted) / trials
	sigma := math.Sqrt(want * (1 - want) / trials)
	if math.Abs(got-want) > 4*sigma {
		t.Fatalf("empirical acceptance %.4f, analytic %.4f (|diff| > 4 sigma = %.4f)", got, want, 4*sigma)
	}
}

// TestDeterminismAcrossWorkers runs the same ensemble with 1 and 8 workers
// (both the orchestrator's pool and the replicas' band parallelism) and
// requires bit-identical reports, permutations and final configurations.
func TestDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) (Report, []int, []float64) {
		ens, err := New(Config{
			Temperatures: ladder(64, 64, 4),
			SwapInterval: 2,
			Seed:         7,
			Workers:      workers,
		}, multispinLadder(t, 64, 64, 7, workers))
		if err != nil {
			t.Fatal(err)
		}
		ens.Sample(25)
		mags := make([]float64, ens.Replicas())
		for i := range mags {
			mags[i] = ens.Backend(i).Magnetization()
		}
		return ens.Report(), ens.Permutation(), mags
	}
	rep1, perm1, mag1 := run(1)
	rep8, perm8, mag8 := run(8)
	if !reflect.DeepEqual(rep1, rep8) {
		t.Errorf("reports differ between 1 and 8 workers:\n%+v\n%+v", rep1, rep8)
	}
	if !reflect.DeepEqual(perm1, perm8) {
		t.Errorf("slot permutations differ: %v vs %v", perm1, perm8)
	}
	if !reflect.DeepEqual(mag1, mag8) {
		t.Errorf("final magnetisations differ: %v vs %v", mag1, mag8)
	}
}

// TestSwapCountsMatchExchangeTraffic runs an odd replica count (so even and
// odd rounds attempt different pair counts) and requires the orchestrator's
// measured swap counters to equal perf.ExchangeTraffic's analytic model.
func TestSwapCountsMatchExchangeTraffic(t *testing.T) {
	const replicas, rounds = 5, 7
	ens, err := New(Config{
		Temperatures: ladder(16, 64, replicas),
		SwapInterval: 1,
		Seed:         3,
	}, multispinLadder(t, 16, 64, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	ens.RunRounds(rounds)
	got := ens.SwapCounts()
	model := perf.ExchangeTraffic(perf.ExchangeSpec{Replicas: replicas, Rounds: rounds},
		interconnect.DefaultLinkParams())
	if got.CommBytes != model.TotalBytes {
		t.Errorf("swap bytes: measured %d, modelled %d", got.CommBytes, model.TotalBytes)
	}
	if got.CommEvents != model.Events {
		t.Errorf("swap events: measured %d, modelled %d", got.CommEvents, model.Events)
	}
	if got.CommHops != model.Hops {
		t.Errorf("swap hops: measured %d, modelled %d", got.CommHops, model.Hops)
	}
	rep := ens.Report()
	if rep.SwapAttempts != model.Attempts {
		t.Errorf("swap attempts: measured %d, modelled %d", rep.SwapAttempts, model.Attempts)
	}
	// The aggregate counters must carry the swap traffic on top of the
	// replicas' own work.
	if total := ens.Counts(); total.CommBytes < got.CommBytes || total.Ops == 0 {
		t.Errorf("aggregate counts %+v do not include swap traffic and replica work", total)
	}
}

// TestPhysicsAcrossTheLadder checks that a tempered run keeps the ordering
// physics demands — |m| falls and energy rises with temperature — and that
// the exchange layer actually moves: healthy acceptance and, on a long
// two-replica run, completed round trips.
func TestPhysicsAcrossTheLadder(t *testing.T) {
	ens, err := New(Config{
		Temperatures: ladder(64, 64, 4),
		SwapInterval: 2,
		Seed:         1,
	}, multispinLadder(t, 64, 64, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	ens.RunRounds(50) // burn in
	ens.Sample(150)
	rep := ens.Report()
	n := len(rep.Replicas)
	if rep.Replicas[0].AbsMagnetization <= rep.Replicas[n-1].AbsMagnetization {
		t.Errorf("|m| should fall across the ladder: %.4f (T=%.3f) vs %.4f (T=%.3f)",
			rep.Replicas[0].AbsMagnetization, rep.Replicas[0].Temperature,
			rep.Replicas[n-1].AbsMagnetization, rep.Replicas[n-1].Temperature)
	}
	if rep.Replicas[0].Energy >= rep.Replicas[n-1].Energy {
		t.Errorf("energy should rise across the ladder: %.4f vs %.4f",
			rep.Replicas[0].Energy, rep.Replicas[n-1].Energy)
	}
	if acc := rep.Acceptance(); acc < 0.1 {
		t.Errorf("swap acceptance %.3f too low for the default window", acc)
	}
	for i, rr := range rep.Replicas {
		if rr.Samples != 150 {
			t.Errorf("replica %d has %d samples, want 150", i, rr.Samples)
		}
		if rr.AutocorrTime < 1 {
			t.Errorf("replica %d tau = %g < 1", i, rr.AutocorrTime)
		}
		if rr.EffectiveSamples <= 0 || rr.EffectiveSamples > float64(rr.Samples) {
			t.Errorf("replica %d effective samples %g out of range", i, rr.EffectiveSamples)
		}
	}
}

// TestRoundTripsAccumulate: two close temperatures on a tiny lattice swap
// constantly, so walkers must complete bottom->top->bottom round trips.
func TestRoundTripsAccumulate(t *testing.T) {
	ens, err := New(Config{
		Temperatures: []float64{2.26, 2.28},
		SwapInterval: 1,
		Seed:         2,
	}, multispinLadder(t, 4, 64, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	ens.RunRounds(200)
	rep := ens.Report()
	if rep.RoundTrips == 0 {
		t.Fatalf("no round trips after 200 rounds at acceptance %.3f", rep.Acceptance())
	}
}

// TestRoundTripsMatchStatsRoundTrips records every walker's temperature
// trajectory alongside the ensemble's incremental counter and requires the
// total to equal stats.RoundTrips over the recorded paths — the two
// implementations must share one definition of a round trip. Four replicas
// of a tiny lattice at tight spacing give plenty of diffusion, including
// walkers that start away from the bottom.
func TestRoundTripsMatchStatsRoundTrips(t *testing.T) {
	const replicas, rounds = 4, 300
	ens, err := New(Config{
		Temperatures: []float64{2.25, 2.26, 2.27, 2.28},
		SwapInterval: 1,
		Seed:         4,
	}, multispinLadder(t, 2, 64, 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	paths := make([][]int, replicas)
	record := func() {
		perm := ens.Permutation() // slot -> walker
		for slot, walker := range perm {
			paths[walker] = append(paths[walker], slot)
		}
	}
	record() // initial positions
	for i := 0; i < rounds; i++ {
		ens.Round()
		record()
	}
	want := 0
	for _, p := range paths {
		want += stats.RoundTrips(p, 0, replicas-1)
	}
	got := ens.Report().RoundTrips
	if got != want {
		t.Fatalf("incremental counter reports %d round trips, stats.RoundTrips over the trajectories reports %d", got, want)
	}
	if want == 0 {
		t.Fatal("no round trips in 300 tight-ladder rounds; the scenario is not exercising the counter")
	}
}

func TestNewValidation(t *testing.T) {
	mk := multispinLadder(t, 4, 64, 1, 0)
	if _, err := New(Config{Temperatures: []float64{2.0}}, mk); err == nil {
		t.Error("single-temperature ladder should fail")
	}
	if _, err := New(Config{Temperatures: []float64{2.5, 2.0}}, mk); err == nil {
		t.Error("descending ladder should fail")
	}
	if _, err := New(Config{Temperatures: []float64{-1, 2.0}}, mk); err == nil {
		t.Error("non-positive temperature should fail")
	}
	// Mismatched lattice sizes across replicas.
	_, err := New(Config{Temperatures: []float64{2.0, 2.5}},
		func(slot int, temperature float64) (ising.Backend, error) {
			return backend.New("multispin", backend.Config{
				Rows: 2 + 2*slot, Cols: 64, Temperature: temperature,
			})
		})
	if err == nil {
		t.Error("mismatched replica sizes should fail")
	}
}

// TestLadderMatchesIndependentChainsAwayFromTc: far from the critical point
// replica exchange must agree with independent chains within error bars (the
// swap move preserves each temperature's stationary distribution).
func TestLadderMatchesIndependentChainsAwayFromTc(t *testing.T) {
	const rows, cols, seed, swapInterval, burnIn, samples = 32, 64, 11, 3, 60, 120
	temps := []float64{1.9, 3.4}
	indep, err := sweep.Run(sweep.Config{Temperatures: temps, BurnIn: burnIn, Samples: samples},
		func(temperature float64) (ising.Backend, error) {
			return backend.New("multispin", backend.Config{
				Rows: rows, Cols: cols, Temperature: temperature, Seed: seed,
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := New(Config{Temperatures: temps, SwapInterval: swapInterval, Seed: 5},
		multispinLadder(t, rows, cols, seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	ens.RunRounds(burnIn / swapInterval)
	ens.Sample(samples)
	tempered := ens.Report().Replicas
	for i := range temps {
		diff := math.Abs(indep[i].AbsMagnetization - tempered[i].AbsMagnetization)
		tol := 5*(indep[i].AbsMagnetizationErr+tempered[i].AbsMagnetizationErr) + 0.02
		if diff > tol {
			t.Errorf("T=%g: independent |m|=%.4f vs tempered |m|=%.4f (diff %.4f > tol %.4f)",
				temps[i], indep[i].AbsMagnetization, tempered[i].AbsMagnetization, diff, tol)
		}
	}
}

// TestReplicaSeedDistinct guards the per-slot seed derivation of tempering
// ladders.
func TestReplicaSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for slot := 0; slot < 64; slot++ {
		s := ReplicaSeed(9, slot)
		if seen[s] {
			t.Fatalf("slot %d reuses seed %d", slot, s)
		}
		seen[s] = true
	}
}

func TestDefaultWindow(t *testing.T) {
	if w := DefaultWindow(64*64, 8); w <= 0 || w > 0.1 {
		t.Errorf("DefaultWindow(4096, 8) = %g out of (0, 0.1]", w)
	}
	if w := DefaultWindow(4, 2); w != 0.1 {
		t.Errorf("tiny lattices should cap at 0.1, got %g", w)
	}
	if w8, w2 := DefaultWindow(1<<20, 8), DefaultWindow(1<<20, 2); w8 <= w2 {
		t.Errorf("more replicas should widen the window: %g vs %g", w8, w2)
	}
	big, small := DefaultWindow(1<<10, 4), DefaultWindow(1<<20, 4)
	if small >= big {
		t.Errorf("bigger lattices should narrow the window: %g vs %g", small, big)
	}
}

// TestEveryBackendTempers builds a two-rung ladder on every registry
// backend, runs a few rounds and checks the ensemble accepts it — the
// tempering layer's contract is "any registered Backend".
func TestEveryBackendTempers(t *testing.T) {
	for _, name := range backend.Names() {
		ens, err := New(Config{Temperatures: []float64{2.2, 2.4}, Seed: 1},
			func(slot int, temperature float64) (ising.Backend, error) {
				return backend.New(name, backend.Config{
					Rows: 4, Cols: 64, Temperature: temperature,
					Seed: ReplicaSeed(1, slot),
				})
			})
		if err != nil {
			t.Errorf("backend %s cannot temper: %v", name, err)
			continue
		}
		ens.Sample(3)
		if rep := ens.Report(); rep.Samples != 3 {
			t.Errorf("backend %s: %d samples, want 3", name, rep.Samples)
		}
	}
}
