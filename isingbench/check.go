package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/service"
	"tpuising/internal/service/encode"
	"tpuising/internal/stats"
	"tpuising/internal/sweep"
	"tpuising/internal/tempering"
)

// verdict is the outcome of checking one drive.
type verdict struct {
	attempted int
	failed    int
	deep      int // jobs recomputed through a second code path
	cacheHits int // resubmissions compared byte for byte with their original
	// ok marks the records that passed every check applied to them.
	ok map[*jobRecord]bool
	// errs lists the first few failures, for the report.
	errs []string
}

const maxReportedErrors = 8

// fail marks rec failed; every check path calls it at most once per record.
func (v *verdict) fail(rec *jobRecord, err error) {
	v.ok[rec] = false
	v.failed++
	if len(v.errs) < maxReportedErrors {
		v.errs = append(v.errs, fmt.Sprintf("client %d job %s (%s): %v", rec.client, rec.id, rec.plan.kind, err))
	}
}

// checkRecords checks every record of a drive. Each job gets the structural
// checks; one job in w.deepEvery (offset chosen by the seed) is recomputed
// in-process through a second code path the repository guarantees to be
// bit-identical, and every cache hit is compared byte for byte with the
// result it repeats. A transport error, a refused submission (429, 503), a
// failed job or any mismatch fails the job.
func checkRecords(w workload, seed uint64, recs [][]*jobRecord) verdict {
	v := verdict{ok: map[*jobRecord]bool{}}
	offset := int(mix64(seed, 0xdee9) % uint64(w.deepEvery))
	n := 0
	for _, client := range recs {
		for _, rec := range client {
			v.attempted++
			v.ok[rec] = true
			if err := checkShape(rec); err != nil {
				v.fail(rec, err)
				continue
			}
			switch {
			case rec.original != nil:
				// The original precedes its resubmission in the client's
				// records, so its verdict is already known.
				v.cacheHits++
				err := sameResult(rec.result, rec.original.result)
				if !v.ok[rec.original] {
					err = errors.New("the original failed")
				}
				if err != nil {
					v.fail(rec, fmt.Errorf("cache hit of job %s: %w", rec.original.id, err))
				}
			case n%w.deepEvery == offset:
				v.deep++
				ref, err := reference(rec.plan.norm)
				if err == nil {
					err = sameResult(rec.result, ref)
				}
				if err != nil {
					v.fail(rec, fmt.Errorf("differs from its reference recomputation: %w", err))
				}
			}
			if rec.original == nil {
				n++
			}
		}
	}
	return v
}

// checkShape checks what every job must satisfy: no transport or HTTP error,
// cached exactly when it is a resubmission, the expected number of stream
// lines, and a result that echoes its spec with the expected sample count,
// colour-step counter, lane or rung rows and physical observables.
func checkShape(rec *jobRecord) error {
	if rec.err != nil {
		return rec.err
	}
	s := rec.plan.norm
	sh := shapeOf(s)
	wantCached := rec.plan.kind == kindResubmit
	if rec.cached != wantCached {
		return fmt.Errorf("cached = %v, want %v", rec.cached, wantCached)
	}
	if !rec.cached && rec.lines != sh.lines {
		return fmt.Errorf("%d stream lines, want %d", rec.lines, sh.lines)
	}
	var r encode.Result
	if err := json.Unmarshal(rec.result, &r); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	wantT := s.Temperature
	if len(s.Temperatures) > 0 {
		wantT = s.Temperatures[0]
	}
	switch {
	case r.Backend != s.Backend || r.Rows != s.Rows || r.Cols != s.Cols || r.Seed != s.Seed ||
		r.Sweeps != s.Sweeps || r.BurnIn != s.BurnIn || r.Temperature != wantT:
		return fmt.Errorf("result does not echo its spec: %s", rec.result)
	case r.Samples != sh.samples:
		return fmt.Errorf("%d samples, want %d", r.Samples, sh.samples)
	case r.Step != uint64(2*sh.totalSweeps):
		return fmt.Errorf("step %d, want %d", r.Step, 2*sh.totalSweeps)
	case len(s.Temperatures) > 0 && len(r.Replicas) != sh.lanes:
		return fmt.Errorf("%d ladder rows, want %d", len(r.Replicas), sh.lanes)
	case s.Replicas > 1 && len(r.Lanes) != sh.lanes:
		return fmt.Errorf("%d lane rows, want %d", len(r.Lanes), sh.lanes)
	case !(math.Abs(r.Magnetization) <= 1) || (s.Replicas == 1 && r.AbsMagnetization != math.Abs(r.Magnetization)) ||
		!(r.Energy >= -2 && r.Energy <= 2):
		return fmt.Errorf("unphysical observables m=%g |m|=%g e=%g", r.Magnetization, r.AbsMagnetization, r.Energy)
	}
	return nil
}

// sameResult compares two encoded results byte for byte once the wall-clock
// fields elapsed_sec and flips_per_ns are dropped. want is either raw JSON or
// a value to encode.
func sameResult(got json.RawMessage, want any) error {
	g, err := canonical(got)
	if err != nil {
		return err
	}
	raw, ok := want.(json.RawMessage)
	if !ok {
		if raw, err = json.Marshal(want); err != nil {
			return err
		}
	}
	w, err := canonical(raw)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("got %s, want %s", g, w)
	}
	return nil
}

// canonical drops the wall-clock fields of an encoded result and re-encodes
// it with sorted keys; every other byte of every value is kept.
func canonical(raw json.RawMessage) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	delete(m, "elapsed_sec")
	delete(m, "flips_per_ns")
	return json.Marshal(m)
}

// reference recomputes a job in-process through the second code path the
// repository guarantees to be bit-identical to the daemon's:
//   - a single multispin chain through the sharded engine on a 2x1 grid;
//   - a batch (lane-packed ensemble or sharded-ensemble) through standalone
//     multispin chains seeded ising.LaneSeed, one per lane;
//   - a ladder through the classic tempering.New ladder of separate
//     multispin replicas.
func reference(s service.JobSpec) (*encode.Result, error) {
	cfg := backend.Config{
		Rows: s.Rows, Cols: s.Cols, Temperature: s.Temperature,
		Seed: s.Seed, Workers: 1, Hot: s.Hot,
	}
	switch {
	case len(s.Temperatures) > 0:
		ens, err := tempering.New(tempering.Config{
			Temperatures: s.Temperatures, SwapInterval: s.SwapInterval, Seed: s.Seed, Workers: 1,
		}, func(slot int, t float64) (ising.Backend, error) {
			c := cfg
			c.Temperature, c.Seed = t, tempering.ReplicaSeed(s.Seed, slot)
			return backend.New("multispin", c)
		})
		if err != nil {
			return nil, err
		}
		return runLadder(s, ens, nil), nil
	case s.Replicas > 1:
		lanes := make([]ising.Backend, s.Replicas)
		for l := range lanes {
			c := cfg
			c.Seed = ising.LaneSeed(s.Seed, l)
			var err error
			if lanes[l], err = backend.New("multispin", c); err != nil {
				return nil, err
			}
		}
		b, err := ising.NewBatchOf(lanes, 1)
		if err != nil {
			return nil, err
		}
		return runBatch(s, b, nil), nil
	default:
		cfg.GridR, cfg.GridC = 2, 1
		eng, err := backend.New("sharded", cfg)
		if err != nil {
			return nil, err
		}
		return runSingle(s, eng, nil), nil
	}
}

// newResult fills the spec echo every result starts from.
func newResult(s service.JobSpec, temperature float64) *encode.Result {
	return &encode.Result{
		Backend: s.Backend, Rows: s.Rows, Cols: s.Cols,
		Temperature: temperature, Seed: s.Seed,
		Sweeps: s.Sweeps, BurnIn: s.BurnIn,
	}
}

// runSingle advances a single chain on the service's schedule — burn-in,
// then measured sweeps sampled every SampleInterval — and encodes its
// result. With a tracer, each sweep and each sample's observables are spans.
func runSingle(s service.JobSpec, eng ising.Backend, tr *tracer) *encode.Result {
	var absAcc, eAcc stats.Accumulator
	for i := 0; i < s.BurnIn; i++ {
		tr.timed("backend.sweep", eng.Sweep)
	}
	for done := 1; done <= s.Sweeps; done++ {
		tr.timed("backend.sweep", eng.Sweep)
		if done%s.SampleInterval == 0 {
			var sm sweep.Sample
			tr.timed("sweep.measure", func() {
				sm = sweep.Sample{Sweep: done, Magnetization: eng.Magnetization(), Energy: eng.Energy()}
			})
			absAcc.Add(math.Abs(sm.Magnetization))
			eAcc.Add(sm.Energy)
		}
	}
	r := newResult(s, s.Temperature)
	encode.Observables(r, eng)
	if absAcc.N() > 0 {
		r.MeanAbsMagnetization = absAcc.Mean()
		r.MeanAbsMagnetizationErr = absAcc.StdErr()
		r.MeanEnergy = eAcc.Mean()
		r.Samples = absAcc.N()
	}
	return r
}

// runBatch is runSingle for a batched ensemble: one sample per lane per
// interval, per-lane rows, and top-level means pooled over lanes in the
// service's order (every lane of one interval before the next interval).
func runBatch(s service.JobSpec, b ising.BatchBackend, tr *tracer) *encode.Result {
	lanes := b.Lanes()
	absAcc := make([]stats.Accumulator, lanes)
	eAcc := make([]stats.Accumulator, lanes)
	var absAll stats.Accumulator
	for done := 1; done <= s.BurnIn+s.Sweeps; done++ {
		tr.timed("backend.sweep", b.Sweep)
		measured := done - s.BurnIn
		if measured > 0 && measured%s.SampleInterval == 0 {
			var ms, es []float64
			tr.timed("sweep.measure", func() { ms, es = b.Magnetizations(), b.Energies() })
			for l := 0; l < lanes; l++ {
				absM := math.Abs(ms[l])
				absAcc[l].Add(absM)
				eAcc[l].Add(es[l])
				absAll.Add(absM)
			}
		}
	}
	r := newResult(s, s.Temperature)
	encode.BatchObservables(r, b, s.Seed)
	var eAll float64
	for l := range r.Lanes {
		if absAcc[l].N() == 0 {
			continue
		}
		r.Lanes[l].MeanAbsMagnetization = absAcc[l].Mean()
		r.Lanes[l].MeanAbsMagnetizationErr = absAcc[l].StdErr()
		r.Lanes[l].MeanEnergy = eAcc[l].Mean()
		r.Lanes[l].Samples = absAcc[l].N()
		eAll += eAcc[l].Mean()
	}
	if absAll.N() > 0 {
		r.MeanAbsMagnetization = absAll.Mean()
		r.MeanAbsMagnetizationErr = absAll.StdErr()
		r.MeanEnergy = eAll / float64(lanes)
		r.Samples = absAll.N()
	}
	return r
}

// runLadder runs a replica-exchange ladder on the service's schedule:
// burn-in rounds, then one measurement per swap round.
func runLadder(s service.JobSpec, ens *tempering.Ensemble, tr *tracer) *encode.Result {
	sh := shapeOf(s)
	burn := sh.totalSweeps/s.SwapInterval - sh.samples
	for i := 0; i < burn+sh.samples; i++ {
		tr.timed("tempering.round", ens.Round)
		if i >= burn {
			tr.timed("sweep.measure", ens.Measure)
		}
	}
	r := newResult(s, s.Temperatures[0])
	encode.Observables(r, ens.Backend(0))
	encode.Tempering(r, ens.Report())
	r.Ops = ens.Counts().Ops
	return r
}

// sweepsOf is what a job adds to the daemon's sweeps_run counter:
// whole-lattice updates times lanes, nothing for a cache hit.
func sweepsOf(rec *jobRecord) int64 {
	if rec.cached {
		return 0
	}
	sh := shapeOf(rec.plan.norm)
	return int64(sh.totalSweeps) * int64(sh.lanes)
}
