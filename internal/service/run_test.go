package service

import (
	"strings"
	"testing"

	"tpuising/internal/ising/backend"
	"tpuising/internal/service/encode"
)

// backendConfig is EngineConfig at another temperature and seed: the engine
// of one ladder rung or lane, built directly by the tests that check a job
// against hand-driven engines.
func backendConfig(spec JobSpec, temperature float64, seed uint64) backend.Config {
	cfg := EngineConfig(spec)
	cfg.Temperature, cfg.Seed = temperature, seed
	return cfg
}

// TestNewRunRefusesZeroIntervals: the runner divides the sweep count by the
// swap interval of a ladder and by the sample interval of a chain or batch,
// so a spec that skipped Normalize with either below 1 fails by name instead
// of panicking mid-run.
func TestNewRunRefusesZeroIntervals(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Backend: "checkerboard", Rows: 8, Cols: 8, Sweeps: 4,
			Temperatures: []float64{2.0, 2.5}, SwapInterval: 0}, "swap interval"},
		{JobSpec{Backend: "checkerboard", Rows: 8, Cols: 8, Sweeps: 4,
			Temperatures: []float64{2.0, 2.5}, SwapInterval: -2}, "swap interval"},
		{JobSpec{Backend: "checkerboard", Rows: 8, Cols: 8, Sweeps: 4, Temperature: 2.0}, "sample interval"},
		{JobSpec{Backend: "checkerboard", Rows: 8, Cols: 8, Sweeps: 4, Temperature: 2.0,
			Replicas: 2}, "sample interval"},
	} {
		if _, err := NewRun(tc.spec, EngineConfig(tc.spec)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewRun(%+v) = %v, want an error naming the %s", tc.spec, err, tc.want)
		}
	}
}

// TestRunChunkingInvariant: a Run swept in one call and one swept in uneven
// chunks produce the same result and the same samples — the daemon's
// chunking to cancel checks and checkpoints never moves a served byte.
func TestRunChunkingInvariant(t *testing.T) {
	for _, spec := range []JobSpec{
		{Backend: "checkerboard", Rows: 8, Cols: 8, Temperature: 2.3, Sweeps: 17, BurnIn: 4,
			Seed: 5, SampleInterval: 3},
		{Backend: "multispin", Rows: 8, Cols: 64, Temperature: 2.3, Sweeps: 11, BurnIn: 2,
			Seed: 6, SampleInterval: 2, Replicas: 3},
		{Backend: "checkerboard", Rows: 8, Cols: 8, Sweeps: 13, BurnIn: 5, Seed: 7,
			Temperatures: []float64{2.0, 2.4, 2.9}, SwapInterval: 3},
	} {
		whole, wholeSamples := sweepInChunks(t, spec, []int{1 << 20})
		chunked, chunkedSamples := sweepInChunks(t, spec, []int{1, 4, 2, 7})
		if whole != chunked {
			t.Errorf("%+v: whole-run result\n%s\ndiffers from chunked\n%s", spec, whole, chunked)
		}
		if wholeSamples != chunkedSamples {
			t.Errorf("%+v: whole-run samples\n%s\ndiffer from chunked\n%s", spec, wholeSamples, chunkedSamples)
		}
	}
}

// sweepInChunks sweeps spec's Run to the end in chunks of the given sizes
// (cycled, capped at what is left) and returns its encoded result, wall
// clock zeroed, and its encoded samples.
func sweepInChunks(t *testing.T, spec JobSpec, chunks []int) (result, samples string) {
	t.Helper()
	run, err := NewRun(spec, EngineConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	emit := func(sm encode.Sample) {
		if err := encode.WriteLine(&sb, sm); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; run.Done() < run.Total(); i++ {
		run.Sweep(min(chunks[i%len(chunks)], run.Total()-run.Done()), emit)
	}
	r := run.Result()
	r.ElapsedSec, r.FlipsPerNs = 0, 0
	var rb strings.Builder
	if err := encode.WriteLine(&rb, r); err != nil {
		t.Fatal(err)
	}
	return rb.String(), sb.String()
}
