package service

import (
	"fmt"
	"math"
	"time"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/service/encode"
	"tpuising/internal/stats"
	"tpuising/internal/tempering"
)

// Run is one job's simulation, from engine to encoded result: the job runner
// that isingd's workers and isingtpu's host modes share. Every job kind is
// one batch swept by one loop: a single chain is its engine as a one-lane
// batch, a replicated job Replicas lanes at one temperature (lane-packed for
// a wide multispin or sharded batch, the lane-parallel adapter otherwise;
// backend.NewBatch picks), and a ladder one lane per rung, coupled by
// Metropolis swaps every SwapInterval sweeps (internal/tempering) and
// sampled from its coldest rung once per round. Lane L of a replicated job
// is exactly the chain a separate job with seed ising.LaneSeed(seed, L)
// runs, and a ladder is bit-identical to a tempering.New ladder of separate
// chains.
//
// A Run knows nothing of time or durability: the caller decides how many
// sweeps each Sweep call runs, and checkpoints and restores a chain through
// Chain, Progress and Resume.
type Run struct {
	spec   JobSpec
	batch  ising.BatchBackend
	chain  ising.Backend       // a single chain's engine; nil for batches and ladders
	ladder *tempering.Ensemble // nil unless the spec lists temperatures

	burnIn, total, interval int
	done                    int
	absAcc, eAcc            []stats.Accumulator // per lane
	absAll                  stats.Accumulator   // every lane's |m| samples, pooled

	start   time.Time // the first Sweep call
	ranHere int       // sweeps run by this Run (a resumed chain's earlier ones excluded)
}

// NewRun builds the engine spec names from the registry configuration
// engine. The spec is used as given: isingd normalizes it first, isingtpu
// fills it from its flags.
func NewRun(spec JobSpec, engine backend.Config) (*Run, error) {
	r := &Run{spec: spec}
	var err error
	switch {
	case len(spec.Temperatures) > 0:
		if spec.SwapInterval < 1 {
			return nil, fmt.Errorf("service: swap interval must be at least 1, got %d", spec.SwapInterval)
		}
		r.batch, err = backend.NewBatchLadder(spec.Backend, engine, spec.Temperatures)
		if err == nil {
			r.ladder, err = tempering.NewBatch(tempering.Config{
				Temperatures: spec.Temperatures,
				SwapInterval: spec.SwapInterval,
				Seed:         spec.Seed,
				Workers:      spec.Workers,
			}, r.batch)
		}
	case spec.SampleInterval < 1:
		return nil, fmt.Errorf("service: sample interval must be at least 1, got %d", spec.SampleInterval)
	case spec.Replicas > 1:
		r.batch, err = backend.NewBatch(spec.Backend, engine, spec.Replicas)
	default:
		// The one-lane adapter backend.NewBatch(…, 1) would build, with
		// the chain's engine kept at hand: checkpoints snapshot it.
		r.chain, err = backend.New(spec.Backend, engine)
		if err == nil {
			r.batch, err = ising.NewBatchOf([]ising.Backend{r.chain}, 1)
		}
	}
	if err != nil {
		return nil, err
	}
	lanes := r.batch.Lanes()
	r.absAcc = make([]stats.Accumulator, lanes)
	r.eAcc = make([]stats.Accumulator, lanes)
	r.burnIn, r.total, r.interval = spec.schedule()
	return r, nil
}

// EngineConfig maps a job spec onto the registry's engine configuration.
func EngineConfig(spec JobSpec) backend.Config {
	return backend.Config{
		Rows: spec.Rows, Cols: spec.Cols, Temperature: spec.Temperature,
		Seed: spec.Seed, Workers: spec.Workers,
		GridR: spec.GridR, GridC: spec.GridC, Hot: spec.Hot,
	}
}

// Batch returns the batch every job kind sweeps.
func (r *Run) Batch() ising.BatchBackend { return r.batch }

// Chain returns a single chain's engine (nil for batches and ladders).
func (r *Run) Chain() ising.Backend { return r.chain }

// Ladder returns a tempering job's ensemble (nil for chains and batches).
func (r *Run) Ladder() *tempering.Ensemble { return r.ladder }

// Done returns the sweeps completed so far, burn-in included, per lane.
func (r *Run) Done() int { return r.done }

// Total returns the sweeps the whole run takes, burn-in included, per lane.
func (r *Run) Total() int { return r.total }

// Progress returns what a chain's checkpoint stores besides the engine
// snapshot: the sweeps done, the pooled |m| accumulator and lane 0's energy
// accumulator.
func (r *Run) Progress() (done int, absM, energy stats.AccumulatorState) {
	return r.done, r.absAll.State(), r.eAcc[0].State()
}

// Resume restores what Progress returned, after the caller restored the
// chain's engine from the same checkpoint. Samples stay in measured-sweep
// coordinates, so a resumed chain keeps the emission schedule of an
// uninterrupted one.
func (r *Run) Resume(done int, absM, energy stats.AccumulatorState) {
	r.done = done
	r.absAll.SetState(absM)
	r.eAcc[0].SetState(energy)
}

// Sweep runs n more sweeps, swapping a ladder every SwapInterval sweeps and
// sampling at every measured interval; emit (nil = discard) receives each
// sample, one per lane for a batch and the coldest rung's for a ladder.
func (r *Run) Sweep(n int, emit func(encode.Sample)) {
	if r.start.IsZero() {
		r.start = time.Now()
	}
	for i := 0; i < n; i++ {
		r.batch.Sweep()
		r.done++
		if r.ladder != nil && r.done%r.spec.SwapInterval == 0 {
			r.ladder.AttemptSwaps()
		}
		if measured := r.done - r.burnIn; measured > 0 && measured%r.interval == 0 {
			r.sample(measured, emit)
		}
	}
	r.ranHere += n
}

// sample records one observation in measured-sweep coordinates.
func (r *Run) sample(measured int, emit func(encode.Sample)) {
	if r.ladder != nil {
		r.ladder.Measure()
		if emit != nil {
			cold := r.ladder.Backend(0)
			m := cold.Magnetization()
			emit(encode.Sample{Sweep: measured,
				Magnetization: m, AbsMagnetization: math.Abs(m), Energy: cold.Energy()})
		}
		return
	}
	ms, es := r.batch.Magnetizations(), r.batch.Energies()
	for lane := range r.absAcc {
		absM := math.Abs(ms[lane])
		r.absAcc[lane].Add(absM)
		r.eAcc[lane].Add(es[lane])
		r.absAll.Add(absM)
		if emit != nil {
			emit(encode.Sample{Sweep: measured, Lane: lane,
				Magnetization: ms[lane], AbsMagnetization: absM, Energy: es[lane]})
		}
	}
}

// Result assembles the run's encode.Result. Its wall-clock fields measure
// this Run alone: the time since its first Sweep call, and the flips of the
// sweeps it ran.
func (r *Run) Result() *encode.Result {
	spec := r.spec
	res := &encode.Result{
		Backend: spec.Backend, Rows: spec.Rows, Cols: spec.Cols,
		Temperature: spec.Temperature, Seed: spec.Seed,
		Sweeps: spec.Sweeps, BurnIn: spec.BurnIn,
	}
	switch {
	case r.ladder != nil:
		res.Temperature = spec.Temperatures[0]
		encode.Observables(res, r.ladder.Backend(0))
		encode.Tempering(res, r.ladder.Report())
		res.Ops = r.ladder.Counts().Ops
	case r.chain != nil:
		encode.Observables(res, r.chain)
	default:
		encode.BatchObservables(res, r.batch, spec.Seed)
	}
	// Chains and batches pool every lane's samples at the top level (a
	// ladder's sample means are its per-rung report); a batch also fills its
	// lane rows. Every lane samples together, so all or none have samples.
	lanes := len(r.absAcc)
	if r.absAll.N() > 0 {
		var eSum float64
		for lane := range lanes {
			eSum += r.eAcc[lane].Mean()
			if res.Lanes != nil {
				res.Lanes[lane].MeanAbsMagnetization = r.absAcc[lane].Mean()
				res.Lanes[lane].MeanAbsMagnetizationErr = r.absAcc[lane].StdErr()
				res.Lanes[lane].MeanEnergy = r.eAcc[lane].Mean()
				res.Lanes[lane].Samples = r.absAcc[lane].N()
			}
		}
		res.MeanAbsMagnetization = r.absAll.Mean()
		res.MeanAbsMagnetizationErr = r.absAll.StdErr()
		res.MeanEnergy = eSum / float64(lanes)
		res.Samples = r.absAll.N()
	}
	if !r.start.IsZero() {
		elapsed := time.Since(r.start)
		res.ElapsedSec = elapsed.Seconds()
		if ns := float64(elapsed.Nanoseconds()); ns > 0 && r.ranHere > 0 {
			res.FlipsPerNs = float64(spec.Rows) * float64(spec.Cols) * float64(r.ranHere) * float64(lanes) / ns
		}
	}
	return res
}
