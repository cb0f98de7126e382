// Package service is the long-running simulation layer over the backend
// registry: the first subsystem in the repository that owns *time* —
// queueing, cancellation, checkpoint/resume — rather than a single run.
//
// A Server accepts JSON job specs (backend name, lattice, temperature or
// tempering ladder, sweeps, seed, shard grid), schedules them on a bounded
// worker pool over internal/ising/backend, streams observables as NDJSON
// while jobs run, and serves a deduplicating result cache keyed by the
// physics-relevant part of the spec, so identical queries never re-simulate.
// Engines that implement ising.Snapshotter are checkpointed every K sweeps;
// a daemon restarted over the same checkpoint directory resumes interrupted
// jobs bit-identically (the chain state, the running observable
// accumulators and the sample emission schedule all continue exactly where
// they stopped — asserted by the determinism tests in this package). With a
// checkpoint directory, admission itself is durable: Submit parks each job
// behind a written intent record before any worker may pick it up, so even
// jobs without an engine snapshot (tempering ladders, batched ensembles)
// survive a restart by deterministically rerunning from sweep zero.
//
// The Server is bounded on every axis a long-lived daemon can grow along:
// the queue (Config.QueueDepth), per-client admissions
// (Config.MaxQueuedPerClient / MaxRunningPerClient, keyed by JobSpec.Client
// or the X-Client-ID header, with JobSpec.Priority ordering the dequeue),
// the result cache (Config.CacheSize entries, CacheBytes bytes, CacheTTL
// age — an LRU, not a map that grows forever) and the finished-job table
// (Config.JobHistory count, JobTTL age, evicted in finish order at O(1)
// cost per finished job). Evicted job IDs answer
// ErrJobExpired (HTTP 410), distinct from never-issued IDs (404). Every
// bound has a counter in Stats, exposed as Prometheus text at GET /metrics.
//
// The data flow of one job:
//
//	POST /v1/jobs ─ Normalize ─ cache? ──hit── stored encode.Result
//	                              │miss
//	                           queue (bounded) ─ worker pool
//	                              │
//	                           Run (run.go, shared with isingtpu)
//	                           one batch: chain (1 lane) | replicas | ladder
//	                           one loop: Sweep chunks ≤ maxChunk
//	                              ├─ ladder: swaps every SwapInterval sweeps
//	                              ├─ samples → NDJSON /stream + accumulators
//	                              ├─ chain: checkpoint every K sweeps (Snapshotter)
//	                              └─ encode.Result → cache + /result
//
// cmd/isingd exposes the Server over HTTP; examples/service drives it
// in-process. See ARCHITECTURE.md for how the service composes with the
// sharding and tempering layers, and internal/perf's checkpoint-traffic
// model for the modelled cost of the state dumps.
package service
