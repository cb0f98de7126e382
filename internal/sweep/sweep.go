package sweep

import (
	"fmt"
	"math"
	"sort"

	"tpuising/internal/ising"
	"tpuising/internal/stats"
)

// Config describes one temperature sweep.
type Config struct {
	// Temperatures is the grid of temperatures (in units of J/kB) to sample.
	Temperatures []float64
	// BurnIn is the number of sweeps discarded before measuring.
	BurnIn int
	// Samples is the number of measurements taken per temperature.
	Samples int
	// Interval is the number of sweeps between successive measurements
	// (defaults to 1).
	Interval int
}

// Point is the measurement at one temperature.
type Point struct {
	// Temperature is the simulated temperature.
	Temperature float64
	// AbsMagnetization is the sample mean of |m|.
	AbsMagnetization float64
	// AbsMagnetizationErr is the standard error of |m|.
	AbsMagnetizationErr float64
	// Binder is the Binder parameter U4 = 1 - <m^4>/(3<m^2>^2).
	Binder float64
	// Energy is the sample mean energy per spin.
	Energy float64
	// Samples is the number of measurements behind the point.
	Samples int
}

// Run sweeps the temperature grid. newChain must return a fresh, independent
// chain for the given temperature, of one engine type and lattice size for
// every temperature; Run calls it once per temperature, in grid order, on the
// caller's goroutine, and returns its first error. The chains run as the
// lanes of one ising.NewBatchOf batch, which sweeps them in parallel; the
// lanes are independent, so parallelism never changes a result.
func Run(cfg Config, newChain func(temperature float64) (ising.Backend, error)) ([]Point, error) {
	if len(cfg.Temperatures) == 0 {
		return nil, nil
	}
	if cfg.Samples <= 0 {
		return nil, fmt.Errorf("sweep: Samples must be positive, got %d", cfg.Samples)
	}
	interval := max(cfg.Interval, 1)
	lanes := make([]ising.Backend, len(cfg.Temperatures))
	for i, temp := range cfg.Temperatures {
		chain, err := newChain(temp)
		if err != nil {
			return nil, err
		}
		lanes[i] = chain
	}
	batch, err := ising.NewBatchOf(lanes, 0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.BurnIn; i++ {
		batch.Sweep()
	}
	ms := make([][]float64, len(lanes))
	abs := make([][]float64, len(lanes))
	energy := make([]float64, len(lanes))
	for s := 0; s < cfg.Samples; s++ {
		for j := 0; j < interval; j++ {
			batch.Sweep()
		}
		for i, m := range batch.Magnetizations() {
			ms[i] = append(ms[i], m)
			abs[i] = append(abs[i], math.Abs(m))
		}
		for i, e := range batch.Energies() {
			energy[i] += e
		}
	}
	points := make([]Point, len(lanes))
	for i, temp := range cfg.Temperatures {
		points[i] = Point{
			Temperature:         temp,
			AbsMagnetization:    stats.Mean(abs[i]),
			AbsMagnetizationErr: stats.StdErr(abs[i]),
			Binder:              stats.Binder(ms[i]),
			Energy:              energy[i] / float64(cfg.Samples),
			Samples:             cfg.Samples,
		}
	}
	return points, nil
}

// TemperatureGrid returns n evenly spaced temperatures in [lo, hi].
func TemperatureGrid(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// CriticalWindow returns a grid of n temperatures spanning the given
// half-width around the exact critical temperature, expressed as a fraction
// of Tc (the x-axis of Figures 4 and 7 is T/Tc in [0.5, 1.5]).
func CriticalWindow(halfWidthFraction float64, n int) []float64 {
	tc := ising.CriticalTemperature()
	return TemperatureGrid(tc*(1-halfWidthFraction), tc*(1+halfWidthFraction), n)
}

// BinderCrossing estimates the temperature at which the Binder-parameter
// curves of two lattice sizes cross, by scanning for a sign change of their
// difference and interpolating linearly. Both point sets must cover the same
// (sorted) temperature grid. It returns an error when the curves do not
// cross inside the grid.
func BinderCrossing(a, b []Point) (float64, error) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, fmt.Errorf("sweep: need two equal-length curves, got %d and %d points", len(a), len(b))
	}
	as := append([]Point(nil), a...)
	bs := append([]Point(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i].Temperature < as[j].Temperature })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Temperature < bs[j].Temperature })
	prev := as[0].Binder - bs[0].Binder
	for i := 1; i < len(as); i++ {
		if as[i].Temperature != bs[i].Temperature {
			return 0, fmt.Errorf("sweep: temperature grids differ at index %d", i)
		}
		cur := as[i].Binder - bs[i].Binder
		if prev == 0 {
			return as[i-1].Temperature, nil
		}
		if (prev < 0) != (cur < 0) {
			// Linear interpolation of the zero of the difference.
			t0, t1 := as[i-1].Temperature, as[i].Temperature
			frac := prev / (prev - cur)
			return t0 + frac*(t1-t0), nil
		}
		prev = cur
	}
	return 0, fmt.Errorf("sweep: Binder curves do not cross within the grid")
}
