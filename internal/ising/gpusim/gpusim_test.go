package gpusim

import (
	"math"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/checkerboard"
	"tpuising/internal/rng"
)

func referenceChain(rows, cols int, temperature float64, seed uint64, sweeps int) *ising.Lattice {
	l := ising.NewLattice(rows, cols)
	sk := rng.NewSiteKeyed(seed)
	beta := ising.Beta(temperature)
	var step uint64
	for i := 0; i < sweeps; i++ {
		step = checkerboard.Sweep(l, beta, sk, step)
	}
	return l
}

func TestSamplerMatchesSerialReference(t *testing.T) {
	const rows, cols = 16, 16
	const temperature = 2.3
	const seed = 4
	s := NewSampler(ising.NewLattice(rows, cols), temperature, seed, 3)
	s.Run(10)
	want := referenceChain(rows, cols, temperature, seed, 10)
	if !s.Lattice.Equal(want) {
		t.Fatal("parallel GPU-style sampler diverged from the serial reference")
	}
	if s.Step() != 20 {
		t.Fatalf("Step = %d", s.Step())
	}
}

func TestSamplerDefaultWorkers(t *testing.T) {
	s := NewSampler(ising.NewLattice(8, 8), 2.0, 1, 0)
	if s.Workers <= 0 {
		t.Fatalf("Workers = %d", s.Workers)
	}
	s.Run(3)
	if m := s.Magnetization(); m < 0.5 {
		t.Fatalf("cold start at T=2.0 lost order after 3 sweeps: m=%v", m)
	}
}

func TestDeviceModels(t *testing.T) {
	models := []DeviceModel{PreisGPU(), TeslaV100(), FPGA(), DGX2(), DGX2H()}
	for _, m := range models {
		if m.Name == "" || m.FlipsPerNs <= 0 || m.PowerWatts <= 0 {
			t.Fatalf("bad device model %+v", m)
		}
		if m.EnergyPerFlip() <= 0 {
			t.Fatalf("%s: non-positive energy per flip", m.Name)
		}
	}
	// The ordering the paper reports: FPGA > V100 > Preis GPU on a single
	// device, DGX systems above all single devices.
	if !(FPGA().FlipsPerNs > TeslaV100().FlipsPerNs && TeslaV100().FlipsPerNs > PreisGPU().FlipsPerNs) {
		t.Fatal("single-device throughput ordering wrong")
	}
	if DGX2H().FlipsPerNs <= DGX2().FlipsPerNs {
		t.Fatal("DGX-2H should outperform DGX-2")
	}
}

func TestClusterSingleDevice(t *testing.T) {
	c := NewCluster(PreisGPU(), 1, 100000)
	if c.ExchangeTime() != 0 {
		t.Fatal("single device should not pay exchange time")
	}
	if math.Abs(c.Throughput()-PreisGPU().FlipsPerNs) > 1e-9 {
		t.Fatalf("single-device throughput %v, want %v", c.Throughput(), PreisGPU().FlipsPerNs)
	}
	if math.Abs(c.Efficiency()-1) > 1e-12 {
		t.Fatalf("single-device efficiency %v", c.Efficiency())
	}
}

func TestClusterReproducesBlockEtAl(t *testing.T) {
	// Block et al. [3]: 64 GPUs, 800,000^2 lattice, ~3 s per whole-lattice
	// update, 206 flips/ns. The model must land in the same regime (within
	// ~25%), showing the host-mediated exchange is what caps the efficiency.
	c := NewCluster(PreisGPU(), 64, 800000)
	step := c.StepTime()
	if step < 2.0 || step > 4.0 {
		t.Fatalf("modelled step time %.2f s, published ~3 s", step)
	}
	tput := c.Throughput()
	if tput < 150 || tput > 260 {
		t.Fatalf("modelled throughput %.1f flips/ns, published 206", tput)
	}
	if eff := c.Efficiency(); eff > 0.7 {
		t.Fatalf("efficiency %v too high: host-mediated exchange should hurt", eff)
	}
}

func TestClusterEfficiencyDropsWithDeviceCount(t *testing.T) {
	prev := 1.1
	for _, devices := range []int{1, 4, 16, 64} {
		c := NewCluster(PreisGPU(), devices, 800000)
		eff := c.Efficiency()
		if eff > prev+1e-12 {
			t.Fatalf("efficiency increased when adding devices: %v -> %v at %d", prev, eff, devices)
		}
		prev = eff
	}
}

func TestClusterThroughputGrowsWithLattice(t *testing.T) {
	// For a fixed device count the exchange overhead is amortised over more
	// spins, so throughput must be monotone in the lattice side.
	small := NewCluster(PreisGPU(), 16, 50000).Throughput()
	large := NewCluster(PreisGPU(), 16, 800000).Throughput()
	if large <= small {
		t.Fatalf("throughput did not grow with lattice: %v vs %v", small, large)
	}
}

func TestClusterStringAndPanics(t *testing.T) {
	if NewCluster(PreisGPU(), 2, 1000).String() == "" {
		t.Fatal("empty String")
	}
	for i, fn := range []func(){
		func() { NewCluster(PreisGPU(), 0, 1000) },
		func() { NewCluster(PreisGPU(), 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
