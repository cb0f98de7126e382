package ensemble

import (
	"math"
	"math/rand"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/multispin"
)

// TestUpdateRowGoldenEquivalence pins the optimized batched ΔE-class loop to
// the retained naive reference (updateRowRef) bit-for-bit, across random
// lane counts, ladders and steps — the ensemble half of the
// golden-equivalence contract (the multispin half lives in
// multispin/kernel_equiv_test.go). It runs on the host's dispatch (the AVX2
// lane kernel on an AVX2 machine); CI also runs it under -race and under
// GOARCH=386, where the portable loop runs.
func TestUpdateRowGoldenEquivalence(t *testing.T) {
	prng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		lanes := 1 + prng.Intn(MaxLanes)
		rows := 2 + 2*prng.Intn(3)
		cols := 64 * (1 + prng.Intn(3))
		var temps []float64
		if prng.Intn(2) == 1 { // non-uniform ladder
			temps = make([]float64, lanes)
			for i := range temps {
				temps[i] = 1.5 + 2*prng.Float64()
			}
		}
		cfg := Config{
			Rows: rows, Cols: cols, Lanes: lanes,
			Temperature: 2.3, Temperatures: temps,
			Seed: prng.Uint64(), Hot: true,
		}
		opt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for sweep := 0; sweep < 3; sweep++ {
			opt.Sweep()
			// Reference sweep: the same colour updates through UpdateRowRef.
			for _, pc := range []struct {
				parity int
				step   uint64
			}{{0, ref.step}, {1, ref.step + 1}} {
				for r := 0; r < ref.rows; r++ {
					row := ref.rowWords(r)
					ref.kern.UpdateRowRef(row,
						ref.rowWords((r-1+ref.rows)%ref.rows),
						ref.rowWords((r+1)%ref.rows),
						row[ref.cols-1], row[0],
						r, 0, pc.parity, pc.step)
				}
			}
			ref.step += 2
		}
		if opt.Hash() != ref.Hash() {
			t.Fatalf("trial %d (lanes=%d %dx%d ladder=%v): optimized loop diverged from reference",
				trial, lanes, rows, cols, temps != nil)
		}
	}

	// Threshold edges: T8 = 0 below T≈0.36 and T4 = 1<<32 at very large T
	// are both reachable from a job spec. Every lane gets its own pair of
	// edge values, so one call mixes edges across the vector body and the
	// portable tail.
	edges := []uint64{0, 1, 1 << 31, 1<<32 - 1, 1 << 32}
	for i := range edges {
		for j := range edges {
			lanes := 1 + prng.Intn(MaxLanes)
			cfg := Config{Rows: 4, Cols: 64, Lanes: lanes, Temperature: 2.3, Seed: prng.Uint64(), Hot: true}
			opt, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for l := 0; l < lanes; l++ {
				th := multispin.Thresholds{T4: edges[(i+l)%len(edges)], T8: edges[(j+2*l)%len(edges)]}
				opt.kern.setLaneThresholds(l, th)
				ref.kern.setLaneThresholds(l, th)
			}
			opt.Sweep()
			for _, pc := range []struct {
				parity int
				step   uint64
			}{{0, ref.step}, {1, ref.step + 1}} {
				for r := 0; r < ref.rows; r++ {
					row := ref.rowWords(r)
					ref.kern.UpdateRowRef(row,
						ref.rowWords((r-1+ref.rows)%ref.rows),
						ref.rowWords((r+1)%ref.rows),
						row[ref.cols-1], row[0],
						r, 0, pc.parity, pc.step)
				}
			}
			ref.step += 2
			if opt.Hash() != ref.Hash() {
				t.Fatalf("edge case %d,%d (lanes=%d): optimized loop diverged from reference", i, j, lanes)
			}
		}
	}
}

// TestSetLaneTemperatureKeepsSoAInSync: the flat threshold mirrors the hot
// loop reads must follow every temperature change exactly.
func TestSetLaneTemperatureKeepsSoAInSync(t *testing.T) {
	e, err := New(Config{Rows: 4, Cols: 64, Lanes: 8, Temperature: 2.0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e.SetLaneTemperature(3, 3.7)
	e.SetLaneTemperature(5, 1.2)
	for l := 0; l < e.lanes; l++ {
		if e.kern.t4s[l] != e.kern.kerns[l].T4 || e.kern.t8s[l] != e.kern.kerns[l].T8 {
			t.Fatalf("lane %d: SoA thresholds (%d, %d) out of sync with kernel (%d, %d)",
				l, e.kern.t4s[l], e.kern.t8s[l], e.kern.kerns[l].T4, e.kern.kerns[l].T8)
		}
	}
	// The memo must return the exact pair a fresh computation gives.
	fresh, err := New(Config{Rows: 4, Cols: 64, Lanes: 8, Temperature: 3.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if e.kern.t4s[3] != fresh.kern.t4s[0] || e.kern.t8s[3] != fresh.kern.t8s[0] {
		t.Fatalf("memoized thresholds (%d, %d) differ from fresh (%d, %d)",
			e.kern.t4s[3], e.kern.t8s[3], fresh.kern.t4s[0], fresh.kern.t8s[0])
	}
	if math.Abs(e.LaneTemperature(3)-3.7) > 0 {
		t.Fatalf("lane temperature not recorded")
	}
}

// BenchmarkSetLaneTemperatureSwap is the satellite-1 micro-benchmark: a
// replica-exchange swap re-temperatures two lanes between the same ladder
// rungs. With the memoized thresholds this is two map lookups and no
// math.Exp; compare BenchmarkThresholdsUncached for what every swap paid
// before.
func BenchmarkSetLaneTemperatureSwap(b *testing.B) {
	ladder := []float64{2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7}
	e, err := New(Config{Rows: 4, Cols: 64, Lanes: len(ladder), Temperatures: ladder, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i % (len(ladder) - 1)
		// One accepted swap: both lanes change rung.
		e.SetLaneTemperature(t, ladder[t+1])
		e.SetLaneTemperature(t+1, ladder[t])
		e.SetLaneTemperature(t, ladder[t])
		e.SetLaneTemperature(t+1, ladder[t+1])
	}
}

// BenchmarkThresholdsUncached is the before side of the satellite-1 pair: the
// two math.Exp calls every SetTemperature used to pay.
func BenchmarkThresholdsUncached(b *testing.B) {
	ladder := []float64{2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7}
	var sink uint64
	for i := 0; i < b.N; i++ {
		beta := ising.Beta(ladder[i%len(ladder)])
		sink += uint64(math.Exp(-4*beta*ising.J)*4294967296) + uint64(math.Exp(-8*beta*ising.J)*4294967296)
	}
	_ = sink
}

// BenchmarkEnsembleSweep measures the optimized 64-lane hot loop, the path
// the ensemble and sharded-ensemble engines run.
func BenchmarkEnsembleSweep(b *testing.B) {
	e, err := New(Config{Rows: 64, Cols: 64, Lanes: 64, Temperature: 2.4, Seed: 1, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(e.N()) * int64(e.lanes) / 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Sweep()
	}
}
