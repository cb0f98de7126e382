package service

import (
	"encoding/json"
	"fmt"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
)

// JobSpec is the JSON description of one simulation job: which engine, what
// lattice, how long, and how it is observed. It is the wire format of the
// POST /v1/jobs endpoint and the identity the result cache is keyed on.
//
// Two kinds of job share the type: a single chain at Temperature (the
// default), and a replica-exchange ensemble when Temperatures lists a ladder.
type JobSpec struct {
	// Backend is the engine's registry name or alias
	// (internal/ising/backend); errors list the registry.
	Backend string `json:"backend"`
	// Rows and Cols are the lattice dimensions (Cols 0 = square).
	Rows int `json:"rows"`
	Cols int `json:"cols,omitempty"`
	// Temperature is the single-chain temperature in J/kB (0 = the critical
	// temperature). Must be unset for tempering jobs.
	Temperature float64 `json:"temperature,omitempty"`
	// Sweeps is the number of measured whole-lattice updates; BurnIn the
	// discarded updates before them.
	Sweeps int `json:"sweeps"`
	BurnIn int `json:"burnin,omitempty"`
	// Seed seeds the run (tempering replicas derive per-slot seeds from it).
	Seed uint64 `json:"seed,omitempty"`
	// Hot starts from a random (infinite-temperature) configuration.
	Hot bool `json:"hot,omitempty"`
	// SampleInterval is the number of sweeps between streamed samples
	// (0 = every sweep). It shapes the measured means, so it is part of the
	// job's cache identity.
	SampleInterval int `json:"sample_interval,omitempty"`
	// Workers is the engine's worker-goroutine count (0 = GOMAXPROCS). Every
	// registered engine is bit-deterministic in it, so it is NOT part of the
	// cache identity.
	Workers int `json:"workers,omitempty"`
	// GridR and GridC select the shard grid of the sharded backend.
	GridR int `json:"grid_r,omitempty"`
	GridC int `json:"grid_c,omitempty"`
	// CheckpointInterval is the number of sweeps between checkpoints
	// (0 = the server default). It never changes any result, so it is NOT
	// part of the cache identity. Setting it for an engine that does not
	// implement ising.Snapshotter fails the job.
	CheckpointInterval int `json:"checkpoint_interval,omitempty"`
	// Temperatures, when non-empty, makes the job a replica-exchange
	// ensemble over the given ladder (strictly ascending, >= 2 rungs) with a
	// swap attempt every SwapInterval sweeps (0 = 10, the CLI default).
	Temperatures []float64 `json:"temperatures,omitempty"`
	SwapInterval int       `json:"swap_interval,omitempty"`
	// Replicas, when > 1, makes the job a batched ensemble: B independent
	// chains of the backend at the job's single temperature, lane L seeded
	// ising.LaneSeed(seed, L), advanced together in one worker slot
	// (lane-packed from 32 replicas for multispin and from 16 for sharded
	// on a pod grid; lane-parallel otherwise). The result carries one row per lane and the stream one
	// sample per lane per interval. At most MaxReplicas; 0 and 1 both mean a single chain.
	// Mutually exclusive with Temperatures (a ladder already defines its
	// replica count) and with checkpointing (no batch snapshot support).
	Replicas int `json:"replicas,omitempty"`
	// Client identifies the submitting client for the server's per-client
	// quotas (Config.MaxQueuedPerClient / MaxRunningPerClient). Empty means
	// anonymous; all anonymous submissions share one quota bucket. The HTTP
	// layer fills it from the X-Client-ID header when the spec leaves it
	// empty. It never changes a result, so it is NOT part of the cache
	// identity — two clients submitting the same physics share one entry.
	Client string `json:"client,omitempty"`
	// Priority orders the queue: 0 (default) to MaxPriority, higher first,
	// FIFO within a priority. A stream of high-priority jobs can starve
	// lower priorities by design — per-client quotas bound the damage: the
	// dequeue skips clients at their MaxRunningPerClient cap, so one client
	// flooding priority-9 jobs cannot hold more workers than its cap while
	// a quiet client's priority-0 job runs on the rest (pinned by
	// TestQuotaFairnessUnderStarvationFlood). Like Client, it schedules the
	// job without changing its result, so it is NOT part of the cache
	// identity.
	Priority int `json:"priority,omitempty"`
}

// MaxReplicas bounds JobSpec.Replicas: the word width of the lane-packed
// ensemble engine, so a wide multispin batch job always fits one packed
// engine.
const MaxReplicas = 64

// MaxPriority bounds JobSpec.Priority (0..MaxPriority, higher runs sooner).
const MaxPriority = 9

// maxClientLen bounds JobSpec.Client: an identity, not a payload channel.
const maxClientLen = 64

// defaultSwapInterval mirrors the isingtpu -swapint default.
const defaultSwapInterval = 10

// Normalize validates the spec and fills the documented defaults, returning
// the canonical form the scheduler runs and the cache is keyed on. Backend
// errors come from the registry's own Canonical, so they list the valid
// engines exactly like the CLI's -backend flag error does.
func (s JobSpec) Normalize() (JobSpec, error) {
	out := s
	name, err := backend.Canonical(s.Backend)
	if err != nil {
		return out, err
	}
	out.Backend = name
	if out.Rows <= 0 {
		return out, fmt.Errorf("service: invalid rows %d", out.Rows)
	}
	if out.Cols == 0 {
		out.Cols = out.Rows
	}
	if out.Cols < 0 {
		return out, fmt.Errorf("service: invalid cols %d", out.Cols)
	}
	if out.Sweeps <= 0 {
		return out, fmt.Errorf("service: sweeps must be positive, got %d", out.Sweeps)
	}
	if out.BurnIn < 0 {
		return out, fmt.Errorf("service: burnin must not be negative, got %d", out.BurnIn)
	}
	if out.SampleInterval <= 0 {
		out.SampleInterval = 1
	}
	if out.CheckpointInterval < 0 {
		return out, fmt.Errorf("service: checkpoint_interval must not be negative, got %d", out.CheckpointInterval)
	}
	if out.Priority < 0 || out.Priority > MaxPriority {
		return out, fmt.Errorf("service: priority must be 0..%d, got %d", MaxPriority, out.Priority)
	}
	if len(out.Client) > maxClientLen {
		return out, fmt.Errorf("service: client ID longer than %d bytes", maxClientLen)
	}
	if out.Replicas < 0 {
		return out, fmt.Errorf("service: replicas must not be negative, got %d", out.Replicas)
	}
	if out.Replicas > MaxReplicas {
		return out, fmt.Errorf("service: at most %d replicas per batched job, got %d", MaxReplicas, out.Replicas)
	}
	if out.Replicas == 0 {
		out.Replicas = 1
	}
	if out.Replicas > 1 {
		if len(out.Temperatures) > 0 {
			return out, fmt.Errorf("service: replicas and temperatures are mutually exclusive (a tempering ladder already defines its replica count)")
		}
		if out.CheckpointInterval > 0 {
			return out, fmt.Errorf("service: batched jobs cannot checkpoint (no ensemble snapshot support)")
		}
	}
	if len(out.Temperatures) > 0 {
		if out.Temperature != 0 {
			return out, fmt.Errorf("service: temperature and temperatures are mutually exclusive (single chain vs tempering ladder)")
		}
		if len(out.Temperatures) < 2 {
			return out, fmt.Errorf("service: a tempering ladder needs at least 2 temperatures, got %d", len(out.Temperatures))
		}
		for i, t := range out.Temperatures {
			if t <= 0 {
				return out, fmt.Errorf("service: ladder temperature %d is %g, must be positive", i, t)
			}
			if i > 0 && t <= out.Temperatures[i-1] {
				return out, fmt.Errorf("service: ladder must be strictly ascending, got %g after %g", t, out.Temperatures[i-1])
			}
		}
		if out.SwapInterval <= 0 {
			out.SwapInterval = defaultSwapInterval
		}
		if out.CheckpointInterval > 0 {
			return out, fmt.Errorf("service: tempering jobs cannot checkpoint (no ensemble snapshot support)")
		}
	} else {
		if out.SwapInterval != 0 {
			return out, fmt.Errorf("service: swap_interval only applies to tempering jobs (set temperatures)")
		}
		if out.Temperature < 0 {
			return out, fmt.Errorf("service: invalid temperature %g", out.Temperature)
		}
		if out.Temperature == 0 {
			out.Temperature = ising.CriticalTemperature()
		}
	}
	return out, nil
}

// cacheIdentity is the subset of a normalized spec that determines the
// result. Workers, CheckpointInterval, Client and Priority are deliberately
// absent: every registered engine is bit-deterministic in its worker count,
// checkpointing never changes a chain (both asserted by tests), and client
// identity and queue priority only schedule a job, so specs differing only
// in them share one cache entry.
type cacheIdentity struct {
	Backend        string    `json:"backend"`
	Rows           int       `json:"rows"`
	Cols           int       `json:"cols"`
	Temperature    float64   `json:"temperature"`
	Sweeps         int       `json:"sweeps"`
	BurnIn         int       `json:"burnin"`
	Seed           uint64    `json:"seed"`
	Hot            bool      `json:"hot"`
	SampleInterval int       `json:"sample_interval"`
	GridR          int       `json:"grid_r"`
	GridC          int       `json:"grid_c"`
	Temperatures   []float64 `json:"temperatures"`
	SwapInterval   int       `json:"swap_interval"`
	// Replicas is part of the identity: a B=4 batch and a B=8 batch of one
	// spec are different simulations and must never share a cache entry.
	Replicas int `json:"replicas"`
}

// CacheKey returns the deduplication key of a normalized spec: two submitted
// specs with equal keys are the same simulation, and the second is served
// from the result cache without stepping any backend.
func (s JobSpec) CacheKey() string {
	blob, err := json.Marshal(cacheIdentity{
		Backend: s.Backend, Rows: s.Rows, Cols: s.Cols,
		Temperature: s.Temperature, Sweeps: s.Sweeps, BurnIn: s.BurnIn,
		Seed: s.Seed, Hot: s.Hot, SampleInterval: s.SampleInterval,
		GridR: s.GridR, GridC: s.GridC,
		Temperatures: s.Temperatures, SwapInterval: s.SwapInterval,
		Replicas: s.Replicas,
	})
	if err != nil {
		// cacheIdentity contains only marshalable fields; this cannot happen.
		panic(err)
	}
	return string(blob)
}

// schedule is a job's sweep plan: the burn-in sweeps, the total sweeps
// (burn-in included; per lane) and the measured sweeps between samples. A
// ladder samples once per swap round: its burn-in rounds up to whole rounds
// and it measures at least one round, so every sample follows a swap.
func (s JobSpec) schedule() (burnIn, total, interval int) {
	if len(s.Temperatures) == 0 {
		return s.BurnIn, s.BurnIn + s.Sweeps, s.SampleInterval
	}
	k := s.SwapInterval
	burnIn = (s.BurnIn + k - 1) / k * k
	return burnIn, burnIn + max(s.Sweeps/k, 1)*k, k
}

// totalSweeps is the whole-lattice updates a job performs end to end
// (per lane, for batches and ladders).
func (s JobSpec) totalSweeps() int {
	_, total, _ := s.schedule()
	return total
}
