package ensemble

import (
	"math"
	"testing"

	"tpuising/internal/ising"
)

// uniform returns n copies of one temperature.
func uniform(n int, t float64) []float64 {
	temps := make([]float64, n)
	for i := range temps {
		temps[i] = t
	}
	return temps
}

// TestSetLaneTemperatureKeepsSoAInSync: the flat threshold mirrors the hot
// loop reads must follow every temperature change exactly.
func TestSetLaneTemperatureKeepsSoAInSync(t *testing.T) {
	k, err := NewKernel(3, uniform(8, 2.0), false)
	if err != nil {
		t.Fatal(err)
	}
	k.SetLaneTemperature(3, 3.7)
	k.SetLaneTemperature(5, 1.2)
	for l := 0; l < k.lanes; l++ {
		if k.t4s[l] != k.kerns[l].T4 || k.t8s[l] != k.kerns[l].T8 {
			t.Fatalf("lane %d: SoA thresholds (%d, %d) out of sync with kernel (%d, %d)",
				l, k.t4s[l], k.t8s[l], k.kerns[l].T4, k.kerns[l].T8)
		}
	}
	// The memo must return the exact pair a fresh computation gives.
	fresh, err := NewKernel(3, uniform(8, 3.7), false)
	if err != nil {
		t.Fatal(err)
	}
	if k.t4s[3] != fresh.t4s[0] || k.t8s[3] != fresh.t8s[0] {
		t.Fatalf("memoized thresholds (%d, %d) differ from fresh (%d, %d)",
			k.t4s[3], k.t8s[3], fresh.t4s[0], fresh.t8s[0])
	}
	if math.Abs(k.LaneTemperature(3)-3.7) > 0 {
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
	e, err := NewKernel(1, ladder, false)
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
