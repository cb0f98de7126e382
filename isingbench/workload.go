package main

import (
	"fmt"
	"math/rand"

	"tpuising/internal/service"
)

// Job kinds. Every job of every workload is one of these; the kind decides
// which reference path checks it and how its flips are counted.
const (
	kindSingle   = "single"   // one multispin chain
	kindLanes    = "lanes"    // a batched ensemble (replicas > 1)
	kindLadder   = "ladder"   // a replica-exchange ladder
	kindResubmit = "resubmit" // an earlier spec sent again: a cache hit
)

// resubmitWindow is how far back service-mix resubmissions reach: the last
// 64 distinct specs of the same client, all well inside the daemon's
// 256-entry result cache, so every resubmission is a deterministic hit.
const resubmitWindow = 64

// workload describes one traffic mix: how many closed-loop clients drive
// the daemon and what each client's next job looks like.
type workload struct {
	name    string
	clients int
	// deepEvery is the deep-check sampling period: one job in deepEvery
	// (offset drawn from the seed) is recomputed in-process through a
	// second code path after the timed window.
	deepEvery int
	// warmup is the number of untimed jobs each client runs first.
	warmup int
	// durable runs the daemon with a checkpoint directory: an fsync'd
	// intent record per computed job, plus the snapshots specs ask for.
	// service-mix runs without one, so its small jobs are not timed
	// against the disk (the benchmark may write only inside its checkout,
	// which need not be tmpfs); the other two workloads measure the writes.
	durable bool
	// deck is the mix of job kinds: each client deals its jobs from a
	// freshly shuffled copy of the deck, so every stretch of len(deck) jobs
	// holds the mix exactly and slices of a window differ only in order.
	deck []string
	// spec builds a fresh job of the kind with the given seed.
	spec func(kind string, seed uint64) service.JobSpec
}

var workloads = map[string]workload{
	"chain-2048": {
		name: "chain-2048", clients: 1, deepEvery: 16, warmup: 12, durable: true,
		deck: []string{kindSingle},
		spec: func(_ string, seed uint64) service.JobSpec {
			// Temperature 0 is the critical temperature; one snapshot at
			// sweep 2 (the job ends at 4, so no second one).
			return service.JobSpec{
				Backend: "multispin", Rows: 2048, Sweeps: 4, SampleInterval: 2,
				CheckpointInterval: 2, Workers: 1, Seed: seed,
			}
		},
	},
	"lanes-pod": {
		name: "lanes-pod", clients: 1, deepEvery: 8, warmup: 16, durable: true,
		deck: []string{kindLanes},
		spec: func(_ string, seed uint64) service.JobSpec {
			return service.JobSpec{
				Backend: "sharded-ensemble", Rows: 128, GridR: 2, GridC: 2, Replicas: 64,
				Temperature: 2.0, Sweeps: 10, SampleInterval: 5, Workers: 1, Seed: seed,
			}
		},
	},
	"service-mix": {
		// One client, so that every round is exactly one dealt deck: with two,
		// a round of completions held an uneven mix, and the fastest rounds
		// were the ones light on batches and ladders (README.md, "Workloads").
		name: "service-mix", clients: 1, deepEvery: 16, warmup: 400,
		// 70% single chains, 10% batches, 10% ladders, 10% cache hits.
		deck: []string{
			kindSingle, kindSingle, kindSingle, kindSingle, kindSingle, kindSingle, kindSingle,
			kindLanes, kindLadder, kindResubmit,
		},
		spec: func(kind string, seed uint64) service.JobSpec {
			s := service.JobSpec{
				Backend: "multispin", Rows: 64, Sweeps: 20, SampleInterval: 5,
				Temperature: 2.0, Workers: 1, Seed: seed,
			}
			switch kind {
			case kindLanes:
				s.Replicas = 8
			case kindLadder:
				s.Temperature = 0
				s.Temperatures = []float64{2.0, 2.2, 2.4, 2.6}
				s.SwapInterval = 5
			}
			return s
		},
	},
}

// roundJobs is the size of one round of the workload: a deck per client,
// the shortest stretch of completions that holds the whole mix (one job on
// the single-kind workloads). The fast-phase metrics are order statistics
// over rounds.
func (w workload) roundJobs() int { return w.clients * len(w.deck) }

// workloadNames lists the workloads in the order the doc presents them.
var workloadNames = []string{"chain-2048", "lanes-pod", "service-mix"}

// plannedJob is one generated submission.
type plannedJob struct {
	kind string
	// spec is what the client sends; norm is its normalized form, the one
	// every expectation is derived from.
	spec, norm service.JobSpec
	// original is the index, in the same generator's sequence, of the job a
	// resubmission repeats (-1 otherwise).
	original int
}

// generator yields one client's job sequence. The sequence is a pure
// function of (workload seed, stream): the daemon only ever sees these specs.
type generator struct {
	w       workload
	r       *rand.Rand
	hand    []string // the undealt rest of the current deck
	planned []plannedJob
	fresh   []int // indices of the non-resubmitted jobs, most recent last
}

// newGenerator seeds one client's stream. Streams are numbered so that
// warm-up and timed traffic, and each client, draw independent sequences.
func newGenerator(w workload, seed uint64, stream int) *generator {
	return &generator{w: w, r: rand.New(rand.NewSource(int64(mix64(seed, uint64(stream)))))}
}

// next plans the client's next job. A resubmission repeats one of the last
// resubmitWindow fresh specs of this client; with none yet it falls back to
// a single chain, so the sequence never depends on timing.
func (g *generator) next() plannedJob {
	if len(g.hand) == 0 {
		g.hand = append(g.hand, g.w.deck...)
		g.r.Shuffle(len(g.hand), func(i, j int) { g.hand[i], g.hand[j] = g.hand[j], g.hand[i] })
	}
	kind := g.hand[0]
	g.hand = g.hand[1:]
	seed := g.r.Uint64()
	j := plannedJob{kind: kind, original: -1}
	if kind == kindResubmit && len(g.fresh) == 0 {
		kind, j.kind = kindSingle, kindSingle
	}
	if kind == kindResubmit {
		back := g.r.Intn(min(len(g.fresh), resubmitWindow))
		j.original = g.fresh[len(g.fresh)-1-back]
		j.spec = g.planned[j.original].spec
	} else {
		j.spec = g.w.spec(kind, seed)
		g.fresh = append(g.fresh, len(g.planned))
		if len(g.fresh) > resubmitWindow {
			g.fresh = g.fresh[1:]
		}
	}
	norm, err := j.spec.Normalize()
	if err != nil {
		panic(fmt.Sprintf("workload %s generated an invalid spec: %v", g.w.name, err))
	}
	j.norm = norm
	g.planned = append(g.planned, j)
	return j
}

// mix64 is the splitmix64 finaliser over two words: a cheap, well-mixed way
// to derive independent stream seeds from the workload seed.
func mix64(a, b uint64) uint64 {
	z := a + b*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// jobShape is what the benchmark expects of one job's output, derived from
// its normalized spec alone.
type jobShape struct {
	lanes       int // chains advanced: replicas, ladder rungs, or 1
	totalSweeps int // whole-lattice updates per chain, burn-in included
	lines       int // NDJSON sample lines on the stream
	samples     int // the result's samples field
}

// shapeOf derives a job's expected shape from its normalized spec, mirroring
// the service's documented schedule: a single chain or a batch samples every
// SampleInterval measured sweeps (one line per lane); a ladder measures once
// per swap round and streams the coldest rung.
func shapeOf(s service.JobSpec) jobShape {
	if len(s.Temperatures) > 0 {
		burn := (s.BurnIn + s.SwapInterval - 1) / s.SwapInterval
		rounds := max(s.Sweeps/s.SwapInterval, 1)
		return jobShape{
			lanes: len(s.Temperatures), totalSweeps: (burn + rounds) * s.SwapInterval,
			lines: rounds, samples: rounds,
		}
	}
	per := s.Sweeps / s.SampleInterval
	return jobShape{
		lanes: s.Replicas, totalSweeps: s.BurnIn + s.Sweeps,
		lines: per * s.Replicas, samples: per * s.Replicas,
	}
}

// flips is the spin updates a computed job of normalized spec s performs:
// rows x cols x (burn-in + sweeps) x lanes. A cache hit performs none.
func flips(s service.JobSpec, cached bool) float64 {
	if cached {
		return 0
	}
	sh := shapeOf(s)
	return float64(s.Rows) * float64(s.Cols) * float64(sh.totalSweeps) * float64(sh.lanes)
}

// lookupWorkload resolves a workload name.
func lookupWorkload(name string) (workload, error) {
	w, ok := workloads[name]
	if !ok {
		return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}
