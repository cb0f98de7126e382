package stats

import (
	"math"
	"testing"
	"testing/quick"

	"tpuising/internal/rng"
)

func TestMeanVarianceBasics(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Error("Mean")
	}
	if Variance(xs) != 2 {
		t.Errorf("Variance = %v", Variance(xs))
	}
	if math.Abs(StdDev(xs)-math.Sqrt2) > 1e-12 {
		t.Error("StdDev")
	}
	if math.Abs(StdErr(xs)-math.Sqrt2/math.Sqrt(5)) > 1e-12 {
		t.Error("StdErr")
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 || StdErr(nil) != 0 {
		t.Error("degenerate cases")
	}
}

func TestMoment(t *testing.T) {
	xs := []float64{1, -1, 2, -2}
	if Moment(xs, 1) != 0 {
		t.Error("first moment")
	}
	if Moment(xs, 2) != 2.5 {
		t.Error("second moment")
	}
	if Moment(xs, 4) != 8.5 {
		t.Error("fourth moment")
	}
	if Moment(nil, 2) != 0 {
		t.Error("empty")
	}
}

func TestBinderLimits(t *testing.T) {
	// Perfectly ordered phase: m = +-1 always -> U4 = 1 - 1/3 = 2/3.
	ordered := []float64{1, 1, -1, 1, -1, -1, 1, 1}
	if math.Abs(Binder(ordered)-2.0/3.0) > 1e-12 {
		t.Errorf("ordered Binder = %v, want 2/3", Binder(ordered))
	}
	// Gaussian-distributed m (disordered phase, large lattice): U4 -> 0.
	p := rng.New(1)
	gauss := make([]float64, 200000)
	for i := range gauss {
		gauss[i] = p.NormFloat64()
	}
	if u := Binder(gauss); math.Abs(u) > 0.02 {
		t.Errorf("gaussian Binder = %v, want ~0", u)
	}
	if Binder([]float64{0, 0}) != 0 {
		t.Error("all-zero samples")
	}
}

func TestAutocorrelation(t *testing.T) {
	// A perfectly alternating sequence has autocorrelation -1 at lag 1.
	alt := make([]float64, 1000)
	for i := range alt {
		if i%2 == 0 {
			alt[i] = 1
		} else {
			alt[i] = -1
		}
	}
	if math.Abs(Autocorrelation(alt, 0)-1) > 1e-12 {
		t.Error("lag 0 should be 1")
	}
	if Autocorrelation(alt, 1) > -0.99 {
		t.Errorf("lag-1 autocorr of alternating = %v", Autocorrelation(alt, 1))
	}
	// White noise decorrelates quickly.
	p := rng.New(2)
	noise := make([]float64, 20000)
	for i := range noise {
		noise[i] = p.Float64()
	}
	if math.Abs(Autocorrelation(noise, 5)) > 0.05 {
		t.Error("white noise should be uncorrelated")
	}
	if Autocorrelation(noise, -1) != 0 || Autocorrelation(noise, len(noise)) != 0 {
		t.Error("out-of-range lags")
	}
	if Autocorrelation([]float64{3, 3, 3}, 1) != 0 {
		t.Error("constant series")
	}
}

func TestIntegratedAutocorrTime(t *testing.T) {
	// Independent samples: tau ~ 1.
	p := rng.New(3)
	iid := make([]float64, 10000)
	for i := range iid {
		iid[i] = p.Float64()
	}
	if tau := IntegratedAutocorrTime(iid); tau > 1.5 {
		t.Errorf("iid tau = %v", tau)
	}
	// An AR(1)-like strongly correlated chain has tau >> 1.
	corr := make([]float64, 10000)
	x := 0.0
	for i := range corr {
		x = 0.95*x + 0.05*(p.Float64()-0.5)
		corr[i] = x
	}
	if tau := IntegratedAutocorrTime(corr); tau < 5 {
		t.Errorf("correlated tau = %v, expected large", tau)
	}
}

func TestBinnedError(t *testing.T) {
	p := rng.New(4)
	iid := make([]float64, 10000)
	for i := range iid {
		iid[i] = p.Float64()
	}
	naive := StdErr(iid)
	binned := BinnedError(iid, 20)
	// For independent samples the two estimates agree within a factor ~2.
	if binned < naive/2 || binned > naive*2 {
		t.Errorf("binned %v vs naive %v", binned, naive)
	}
	// Degenerate parameters fall back to the naive estimate.
	if BinnedError(iid, 1) != naive {
		t.Error("nbins<2 fallback")
	}
	if BinnedError([]float64{1, 2}, 10) != StdErr([]float64{1, 2}) {
		t.Error("short series fallback")
	}
}

func TestBinnedErrorGrowsWithCorrelation(t *testing.T) {
	// For a correlated chain, binning gives a larger (more honest) error bar
	// than the naive estimate.
	p := rng.New(5)
	corr := make([]float64, 20000)
	x := 0.0
	for i := range corr {
		x = 0.97*x + 0.03*(p.Float64()-0.5)
		corr[i] = x
	}
	if BinnedError(corr, 20) < 2*StdErr(corr) {
		t.Error("binned error should exceed naive error for a correlated chain")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("summary %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary")
	}
}

func TestBinderInvariantUnderSignFlip(t *testing.T) {
	// U4 depends only on even moments, so flipping sign of all samples
	// changes nothing.
	f := func(seed uint64) bool {
		p := rng.New(seed)
		xs := make([]float64, 500)
		ys := make([]float64, 500)
		for i := range xs {
			xs[i] = p.NormFloat64()
			ys[i] = -xs[i]
		}
		return math.Abs(Binder(xs)-Binder(ys)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanLinearityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := rng.New(seed)
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = p.Float64()
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 3
		}
		return math.Abs(Mean(shifted)-Mean(xs)-3) < 1e-12 &&
			math.Abs(Variance(shifted)-Variance(xs)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
