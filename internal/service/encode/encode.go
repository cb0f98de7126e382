// Package encode defines the machine-readable result and sample types shared
// by the isingd simulation service and `isingtpu -json`: one run, one
// Result; one streamed observation, one Sample NDJSON line. Keeping the CLI
// and the daemon on a single wire type means a script that parses one parses
// the other. Both also run one job runner (service.Run), and the CLI samples
// once, at its last sweep: the service's result cache holds, for a spec
// whose sample interval is its sweep count, exactly what the CLI prints
// (wall-clock fields aside).
package encode

import (
	"encoding/json"
	"io"

	"tpuising/internal/ising"
	"tpuising/internal/tempering"
)

// Result is the machine-readable outcome of one simulation run.
//
// The final-state observables (Magnetization, AbsMagnetization, Energy,
// Step, Ops) are pure functions of the configuration and seed, so two runs
// of the same spec produce identical values — the service's cache and the
// checkpoint/resume determinism tests rely on this. ElapsedSec and
// FlipsPerNs are wall-clock measurements and are excluded from every
// determinism comparison.
type Result struct {
	// Backend is the canonical registry name of the engine.
	Backend string `json:"backend"`
	// Rows and Cols are the lattice dimensions.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// Temperature is the simulation temperature in J/kB (the ladder minimum
	// for tempering runs).
	Temperature float64 `json:"temperature"`
	// Seed is the random seed of the run.
	Seed uint64 `json:"seed"`
	// Sweeps and BurnIn are the measured and discarded whole-lattice updates.
	Sweeps int `json:"sweeps"`
	BurnIn int `json:"burnin,omitempty"`
	// Step is the engine's colour-update counter after the run and Ops its
	// attempted spin updates.
	Step uint64 `json:"step"`
	Ops  int64  `json:"ops"`
	// Magnetization, AbsMagnetization and Energy are the final-state
	// observables per spin.
	Magnetization    float64 `json:"m"`
	AbsMagnetization float64 `json:"abs_m"`
	Energy           float64 `json:"e"`
	// MeanAbsMagnetization, MeanAbsMagnetizationErr, MeanEnergy and Samples
	// summarise the measured samples (absent when the run took none).
	MeanAbsMagnetization    float64 `json:"mean_abs_m,omitempty"`
	MeanAbsMagnetizationErr float64 `json:"mean_abs_m_err,omitempty"`
	MeanEnergy              float64 `json:"mean_e,omitempty"`
	Samples                 int     `json:"samples,omitempty"`
	// ElapsedSec and FlipsPerNs are wall-clock throughput measurements
	// (never part of determinism comparisons or the cache key).
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`
	FlipsPerNs float64 `json:"flips_per_ns,omitempty"`
	// Replicas, RoundTrips and SwapAcceptance describe replica-exchange runs
	// (empty for single-chain runs).
	Replicas       []Replica `json:"replicas,omitempty"`
	RoundTrips     int       `json:"round_trips,omitempty"`
	SwapAcceptance float64   `json:"swap_acceptance,omitempty"`
	// Lanes holds the per-lane rows of a batched run (JobSpec.Replicas > 1 /
	// isingtpu -replicas): one row per independent chain, lane order. For
	// batched runs the top-level final-state observables are the means over
	// lanes, and the top-level sample means pool every lane's samples.
	Lanes []Lane `json:"lanes,omitempty"`
}

// Lane is the per-chain row of a batched (many-replica) Result.
type Lane struct {
	// Lane is the chain's index; Seed its derived chain seed
	// (ising.LaneSeed of the run seed).
	Lane int    `json:"lane"`
	Seed uint64 `json:"seed"`
	// Magnetization, AbsMagnetization and Energy are the lane's final-state
	// observables per spin.
	Magnetization    float64 `json:"m"`
	AbsMagnetization float64 `json:"abs_m"`
	Energy           float64 `json:"e"`
	// MeanAbsMagnetization, MeanAbsMagnetizationErr, MeanEnergy and Samples
	// summarise the lane's measured samples (absent when the run took none).
	MeanAbsMagnetization    float64 `json:"mean_abs_m,omitempty"`
	MeanAbsMagnetizationErr float64 `json:"mean_abs_m_err,omitempty"`
	MeanEnergy              float64 `json:"mean_e,omitempty"`
	Samples                 int     `json:"samples,omitempty"`
}

// Replica is the per-temperature row of a replica-exchange Result.
type Replica struct {
	Temperature         float64 `json:"temperature"`
	AbsMagnetization    float64 `json:"abs_m"`
	AbsMagnetizationErr float64 `json:"abs_m_err"`
	Binder              float64 `json:"binder"`
	Energy              float64 `json:"e"`
	AutocorrTime        float64 `json:"tau"`
	PairAcceptance      float64 `json:"pair_acceptance,omitempty"`
	Samples             int     `json:"samples"`
}

// Sample is one streamed observation of a running job: the NDJSON line type
// of the service's /stream endpoint.
type Sample struct {
	// Job is the job ID the sample belongs to (empty in single-run CLI use).
	Job string `json:"job,omitempty"`
	// Sweep is the number of measured whole-lattice updates completed when
	// the sample was taken (burn-in excluded).
	Sweep int `json:"sweep"`
	// Magnetization, AbsMagnetization and Energy are per-spin observables.
	Magnetization    float64 `json:"m"`
	AbsMagnetization float64 `json:"abs_m"`
	Energy           float64 `json:"e"`
	// Truncated, when non-zero, marks a bookkeeping line (not an
	// observation): the server did not retain this many samples beyond its
	// per-job history bound, and the stream is missing them. It is only ever
	// set on the final line of a stream.
	Truncated int `json:"truncated,omitempty"`
	// Lane is the chain index of a batched job's sample (omitted for lane 0
	// and for single-chain jobs). A batched job emits one sample line per
	// lane at every sample interval.
	Lane int `json:"lane,omitempty"`
}

// Observables fills r's final-state observable fields from the backend.
func Observables(r *Result, b ising.Backend) {
	m := b.Magnetization()
	r.Magnetization = m
	if m < 0 {
		m = -m
	}
	r.AbsMagnetization = m
	r.Energy = b.Energy()
	r.Step = b.Step()
	r.Ops = b.Counts().Ops
}

// BatchObservables fills r's final-state observable fields — top-level and
// per-lane rows — from a batched backend: the single conversion the job
// runner (service.Run, behind both `isingtpu -replicas` and the service's
// batched jobs) goes through. The top-level final-state observables are the
// means over lanes; seed is the run seed the lane seeds derive from.
func BatchObservables(r *Result, b ising.BatchBackend, seed uint64) {
	ms, es := b.Magnetizations(), b.Energies()
	r.Lanes = make([]Lane, b.Lanes())
	var mSum, absSum, eSum float64
	for lane := range r.Lanes {
		m := ms[lane]
		abs := m
		if abs < 0 {
			abs = -abs
		}
		r.Lanes[lane] = Lane{
			Lane: lane, Seed: ising.LaneSeed(seed, lane),
			Magnetization: m, AbsMagnetization: abs, Energy: es[lane],
		}
		mSum += m
		absSum += abs
		eSum += es[lane]
	}
	n := float64(b.Lanes())
	r.Magnetization = mSum / n
	r.AbsMagnetization = absSum / n
	r.Energy = eSum / n
	r.Step = b.Step()
	r.Ops = b.Counts().Ops
}

// Tempering fills r's replica-exchange fields from a tempering report — the
// single conversion the job runner (service.Run, behind both `isingtpu -json
// -temper` and the service's tempering jobs) goes through.
func Tempering(r *Result, rep tempering.Report) {
	r.RoundTrips = rep.RoundTrips
	r.SwapAcceptance = rep.Acceptance()
	r.Samples = rep.Samples
	r.Replicas = make([]Replica, 0, len(rep.Replicas))
	for _, rr := range rep.Replicas {
		r.Replicas = append(r.Replicas, Replica{
			Temperature:         rr.Temperature,
			AbsMagnetization:    rr.AbsMagnetization,
			AbsMagnetizationErr: rr.AbsMagnetizationErr,
			Binder:              rr.Binder,
			Energy:              rr.Energy,
			AutocorrTime:        rr.AutocorrTime,
			PairAcceptance:      rr.PairAcceptance,
			Samples:             rr.Samples,
		})
	}
}

// WriteLine writes v as one NDJSON line: its JSON encoding followed by a
// newline.
func WriteLine(w io.Writer, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}
