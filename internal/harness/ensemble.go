package harness

import (
	"fmt"
	"math"

	"tpuising/internal/ising"
	"tpuising/internal/ising/shardedensemble"
)

// EnsembleOnsager runs the physics validation of the lane-packed engine: at
// each temperature every lane is an independent chain at that temperature,
// so the mean over lanes (and samples) converges fast to the exact Onsager
// values below Tc — the same check cmd/correctness applies to the TPU
// kernels, now covering the ensemble backend. Each row reports the
// lane-and-sample mean of |m| and E/spin against the exact results and
// their deviations.
func EnsembleOnsager(size, lanes, burnIn, samples int, seed uint64) *Table {
	t := &Table{
		ID: "ensemble_onsager",
		Title: fmt.Sprintf(
			"Lane-packed ensemble (%d lanes, %dx%d) vs exact Onsager results", lanes, size, size),
		Columns: []string{
			"T", "T/Tc", "|m| (lanes mean)", "Onsager |m|", "delta |m|", "E/spin", "exact E/spin", "delta E",
		},
	}
	tc := ising.CriticalTemperature()
	for _, temp := range []float64{1.8, 2.0, 2.1} {
		// Built directly: backend.NewBatch routes fewer than 32 lanes to
		// the adapter of separate chains.
		e, err := shardedensemble.New(shardedensemble.Config{
			Name: "ensemble", Rows: size, Cols: size, Lanes: lanes, Temperature: temp, Seed: seed,
		})
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		for s := 0; s < burnIn; s++ {
			e.Sweep()
		}
		var absSum, eSum float64
		for s := 0; s < samples; s++ {
			e.Sweep()
			for _, m := range e.Magnetizations() {
				absSum += math.Abs(m)
			}
			for _, en := range e.Energies() {
				eSum += en
			}
		}
		n := float64(lanes) * float64(samples)
		absM := absSum / n
		energy := eSum / n
		exactM := ising.OnsagerMagnetization(temp)
		exactE := ising.ExactEnergyPerSpin(temp)
		t.AddRow(
			fmt.Sprintf("%.2f", temp),
			fmt.Sprintf("%.4f", temp/tc),
			fmt.Sprintf("%.5f", absM),
			fmt.Sprintf("%.5f", exactM),
			fmt.Sprintf("%+.5f", absM-exactM),
			fmt.Sprintf("%.5f", energy),
			fmt.Sprintf("%.5f", exactE),
			fmt.Sprintf("%+.5f", energy-exactE),
		)
	}
	t.Notes = append(t.Notes,
		"each row averages over all lanes and samples; lanes are independent chains at the row's temperature",
		fmt.Sprintf("%d burn-in sweeps, %d measured sweeps, per-lane seeds derived from seed %d", burnIn, samples, seed),
		"exact values: Onsager spontaneous magnetisation and the exact internal energy of the infinite lattice",
	)
	return t
}
