// Phase transition: reproduce the physics behind the paper's Figure 4 at
// laptop scale. The example sweeps a window of temperatures around the exact
// critical point for two lattice sizes, measures the average magnetisation
// and the Binder parameter, and locates the crossing of the Binder curves —
// which should land on Tc = 2/ln(1+sqrt(2)).
package main

import (
	"fmt"
	"log"

	"tpuising/internal/ising"
	"tpuising/internal/ising/tpu"
	"tpuising/internal/sweep"
	"tpuising/internal/tensor"
)

func main() {
	tc := ising.CriticalTemperature()
	temperatures := sweep.CriticalWindow(0.15, 9)
	cfg := sweep.Config{
		Temperatures: temperatures,
		BurnIn:       800,
		Samples:      1500,
	}

	sizes := []int{16, 48}
	curves := make(map[int][]sweep.Point)
	for _, size := range sizes {
		size := size
		fmt.Printf("sweeping %d temperatures on the %dx%d lattice...\n", len(temperatures), size, size)
		points, err := sweep.Run(cfg, func(temperature float64) (ising.Backend, error) {
			return tpu.NewSimulator(tpu.Config{
				Rows: size, Cols: size, Temperature: temperature,
				TileSize: 8, DType: tensor.BFloat16, Algorithm: tpu.AlgOptim,
				Seed: uint64(1000 + size),
			}), nil
		})
		if err != nil {
			log.Fatal(err)
		}
		curves[size] = points
	}

	fmt.Println("\n  T/Tc    |m| (16)   U4 (16)   |m| (48)   U4 (48)   Onsager |m|")
	for i, temp := range temperatures {
		a, b := curves[sizes[0]][i], curves[sizes[1]][i]
		fmt.Printf("%7.4f  %9.4f  %8.4f  %9.4f  %8.4f  %12.4f\n",
			temp/tc, a.AbsMagnetization, a.Binder, b.AbsMagnetization, b.Binder,
			ising.OnsagerMagnetization(temp))
	}

	if cross, err := sweep.BinderCrossing(curves[sizes[0]], curves[sizes[1]]); err == nil {
		fmt.Printf("\nBinder curves cross at T = %.4f (exact Tc = %.4f, %.2f%% off)\n",
			cross, tc, 100*(cross-tc)/tc)
	} else {
		fmt.Printf("\nno Binder crossing found: %v\n", err)
	}
}
