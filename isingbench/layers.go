package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/ensemble"
	"tpuising/internal/ising/multispin"
	"tpuising/internal/ising/shardedensemble"
	"tpuising/internal/perf"
	"tpuising/internal/rng"
	"tpuising/internal/service"
	"tpuising/internal/service/encode"
	"tpuising/internal/tempering"
)

// perCall times fn in batches of calls, each batch lasting at least minBatch,
// and returns the median per-call time over reps batches.
func perCall(reps int, minBatch time.Duration, fn func()) time.Duration {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= minBatch {
			break
		}
		n *= 2
	}
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(start)) / float64(n)
	}
	return time.Duration(median(per))
}

const (
	microReps  = 5
	microBatch = 40 * time.Millisecond
)

// replayCounts is how many of the workload's specs the traced run replays
// in-process through the layer entry points.
var replayCounts = map[string]int{"chain-2048": 3, "lanes-pod": 6, "service-mix": 400}

// layerMetrics replays the workload in-process and times each layer's public
// entry points from the benchmark's own code. m receives the metrics in ms,
// us, ns or counts as their names say.
func layerMetrics(w workload, seed uint64, tr *tracer, m map[string]float64, workdir string) error {
	g := newGenerator(w, seed, 3000)
	var news, resultUS, resultBytes []float64
	var single service.JobSpec
	for i := 0; i < replayCounts[w.name]; i++ {
		p := g.next()
		if p.kind == kindResubmit {
			continue
		}
		s := p.norm
		var r *encode.Result
		var err error
		switch {
		case len(s.Temperatures) > 0:
			var ens *tempering.Ensemble
			news = append(news, ms(tr.timed("backend.new", func() { ens, err = newLadder(s) })))
			if err == nil {
				r = runLadder(s, ens, tr)
			}
		case s.Replicas > 1:
			var b ising.BatchBackend
			news = append(news, ms(tr.timed("backend.new", func() {
				b, err = backend.NewBatch(s.Backend, backendConfig(s), s.Replicas)
			})))
			if err == nil {
				r = runBatch(s, b, tr)
			}
		default:
			single = s
			var eng ising.Backend
			news = append(news, ms(tr.timed("backend.new", func() {
				eng, err = backend.New(s.Backend, backendConfig(s))
			})))
			if err == nil {
				r = runSingle(s, eng, tr)
			}
		}
		if err != nil {
			return fmt.Errorf("replaying %+v: %w", s, err)
		}
		var blob []byte
		d := perCall(microReps, 2*time.Millisecond, func() { blob, _ = json.Marshal(r) })
		resultUS = append(resultUS, float64(d)/1e3)
		resultBytes = append(resultBytes, float64(len(blob)))
	}
	m["backend.new_ms"] = median(news)
	m["backend.sweep_ms"] = median(tr.durations("backend.sweep"))
	m["sweep.measure_us"] = median(tr.durations("sweep.measure")) * 1e3
	m["encode.result_us"] = median(resultUS)
	m["encode.result_bytes"] = median(resultBytes)

	rngMetrics(w, single, m)
	if err := kernelMetrics(m); err != nil {
		return err
	}
	if err := interconnectMetrics(w, m); err != nil {
		return err
	}
	if err := temperingMetrics(seed, m); err != nil {
		return err
	}
	if err := checkpointEncode(m); err != nil {
		return err
	}
	return serviceInProcess(w, seed, workdir, m)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// backendConfig maps a normalized spec onto the engine registry's config,
// the way the service does.
func backendConfig(s service.JobSpec) backend.Config {
	return backend.Config{
		Rows: s.Rows, Cols: s.Cols, Temperature: s.Temperature, Seed: s.Seed,
		Workers: s.Workers, GridR: s.GridR, GridC: s.GridC, Hot: s.Hot,
	}
}

// newLadder builds a ladder job's engine the way the service does: one
// batched backend with a lane per rung under tempering.NewBatch.
func newLadder(s service.JobSpec) (*tempering.Ensemble, error) {
	b, err := backend.NewBatchLadder(s.Backend, backendConfig(s), s.Temperatures)
	if err != nil {
		return nil, err
	}
	return tempering.NewBatch(tempering.Config{
		Temperatures: s.Temperatures, SwapInterval: s.SwapInterval, Seed: s.Seed, Workers: s.Workers,
	}, b)
}

// rngMetrics times the Philox batch call at the workload's row width: one
// BlockRow of a row's per-site blocks (8 per 64-column word) for the
// multispin workloads, one BlockLanes over 64 lane keys for lanes-pod.
func rngMetrics(w workload, single service.JobSpec, m map[string]float64) {
	var blocks int
	var fn func()
	if w.name == "lanes-pod" {
		k0, k1 := make([]uint32, ensemble.MaxLanes), make([]uint32, ensemble.MaxLanes)
		for l := range k0 {
			k0[l], k1[l] = uint32(l), uint32(l)*7
		}
		dst := make([]uint32, 4*len(k0))
		blocks = len(k0)
		fn = func() { rng.BlockLanes(dst, rng.Counter{1, 0, 2, 3}, k0, k1) }
	} else {
		blocks = single.Cols / multispin.WordBits * 8
		dst := make([]uint32, 4*blocks)
		fn = func() { rng.BlockRow(dst, rng.Counter{1, 0, 2, 0}, rng.Key{5, 6}) }
	}
	m["rng.ns_per_block"] = float64(perCall(microReps, microBatch, fn)) / float64(blocks)
}

// kernelMetrics times the row kernels directly over whole lattices: the
// multispin UpdateRowScratch over every row and both colours at 2048², and
// the lane-packed ensemble kernel with 64 lanes at 128². kernel_share is the
// multispin kernel's sweep time over the multispin engine's sweep at 2048².
func kernelMetrics(m map[string]float64) error {
	const n = 2048
	W := n / multispin.WordBits
	r := rand.New(rand.NewSource(1))
	spins := make([]uint64, n*W)
	for i := range spins {
		spins[i] = r.Uint64()
	}
	k := multispin.NewKernel(ising.CriticalTemperature(), 7, false)
	var sc multispin.Scratch
	kernelSweep := perCall(microReps, 4*microBatch, torusSweep(spins, n, func(cur, north, south []uint64, row, parity int, step uint64) {
		k.UpdateRowScratch(cur, north, south, cur[W-1], cur[0], row, 0, parity, step, &sc)
	}))
	m["multispin.update_row_flips_per_ns"] = float64(n*n) / float64(kernelSweep)
	eng, err := backend.New("multispin", backend.Config{Rows: n, Cols: n, Seed: 7, Workers: 1})
	if err != nil {
		return err
	}
	m["multispin.kernel_share"] = float64(kernelSweep) / float64(perCall(microReps, 4*microBatch, eng.Sweep))

	const e, lanes = 128, ensemble.MaxLanes
	temps := make([]float64, lanes)
	for l := range temps {
		temps[l] = 2.0
	}
	ek, err := ensemble.NewKernel(7, temps, false)
	if err != nil {
		return err
	}
	words := make([]uint64, e*e)
	for i := range words {
		words[i] = r.Uint64()
	}
	var esc ensemble.Scratch
	ensembleSweep := perCall(microReps, microBatch, torusSweep(words, e, func(cur, north, south []uint64, row, parity int, step uint64) {
		ek.UpdateRow(cur, north, south, cur[e-1], cur[0], row, 0, parity, step, &esc)
	}))
	m["ensemble.update_row_flips_per_ns"] = float64(e*e*lanes) / float64(ensembleSweep)
	return nil
}

// torusSweep returns one whole-lattice sweep of a row kernel over words,
// split into `rows` equal rows on a torus: every row of one colour, then of
// the other, each with its periodic north and south neighbours.
func torusSweep(words []uint64, rows int, update func(cur, north, south []uint64, row, parity int, step uint64)) func() {
	w := len(words) / rows
	row := func(r int) []uint64 { r = (r + rows) % rows; return words[r*w : (r+1)*w] }
	step := uint64(0)
	return func() {
		for parity := 0; parity < 2; parity++ {
			for r := 0; r < rows; r++ {
				update(row(r), row(r-1), row(r+1), r, parity, step)
			}
			step++
		}
	}
}

// interconnectMetrics reads the pod engine's comm counters for the
// lanes-pod spec and requires them to equal perf.ShardedEnsembleTraffic
// exactly; overhead_share compares its 2x2 sweep with the unsharded
// lane-packed ensemble's sweep on the same lattice and seed. Workloads
// without a pod engine report zeros.
func interconnectMetrics(w workload, m map[string]float64) error {
	m["interconnect.halo_bytes_per_sweep"] = 0
	m["interconnect.permutes_per_sweep"] = 0
	m["interconnect.overhead_share"] = 0
	if w.name != "lanes-pod" {
		return nil
	}
	s := newGenerator(w, 0, 0).next().norm
	b, err := backend.NewBatch(s.Backend, backendConfig(s), s.Replicas)
	if err != nil {
		return err
	}
	pod, ok := b.(*shardedensemble.Engine)
	if !ok {
		return fmt.Errorf("lanes-pod spec built %T, not the sharded-ensemble engine", b)
	}
	const sweeps = 10
	for i := 0; i < sweeps; i++ {
		b.Sweep()
	}
	c := pod.Counts()
	model := perf.ShardedEnsembleTraffic(perf.ShardedEnsembleSpec{
		Rows: s.Rows, Cols: s.Cols, GridR: s.GridR, GridC: s.GridC, Lanes: s.Replicas,
	}, pod.Pod().Mesh().Link)
	if c.CommBytes != sweeps*model.TotalBytes || c.CommEvents != sweeps*model.Events {
		return fmt.Errorf("interconnect counters %d bytes / %d permutes over %d sweeps differ from the perf model's %d / %d per sweep",
			c.CommBytes, c.CommEvents, sweeps, model.TotalBytes, model.Events)
	}
	m["interconnect.halo_bytes_per_sweep"] = float64(c.CommBytes) / sweeps
	m["interconnect.permutes_per_sweep"] = float64(c.CommEvents) / sweeps

	flat := s
	flat.Backend, flat.GridR, flat.GridC = "multispin", 0, 0
	eb, err := backend.NewBatch(flat.Backend, backendConfig(flat), flat.Replicas)
	if err != nil {
		return err
	}
	podSweep := perCall(microReps, microBatch, b.Sweep)
	flatSweep := perCall(microReps, microBatch, eb.Sweep)
	m["interconnect.overhead_share"] = float64(podSweep-flatSweep) / float64(podSweep)
	return nil
}

// temperingMetrics times a service-mix ladder (drawn from the seed): whole
// rounds, and the swap phase alone.
func temperingMetrics(seed uint64, m map[string]float64) error {
	g := newGenerator(workloads["service-mix"], seed, 4000)
	p := g.next()
	for p.kind != kindLadder {
		p = g.next()
	}
	s := p.norm
	ens, err := newLadder(s)
	if err != nil {
		return err
	}
	const rounds = 40
	var roundMs, swapUs []float64
	for i := 0; i < rounds; i++ {
		start := time.Now()
		ens.SweepReplicas(s.SwapInterval)
		mid := time.Now()
		ens.AttemptSwaps()
		end := time.Now()
		roundMs = append(roundMs, ms(end.Sub(start)))
		swapUs = append(swapUs, float64(end.Sub(mid))/1e3)
	}
	m["tempering.round_ms"] = median(roundMs)
	m["tempering.swap_us"] = median(swapUs)
	return nil
}

// checkpointEncode times ising.EncodeSnapshot of a 2048² multispin engine.
func checkpointEncode(m map[string]float64) error {
	eng, err := backend.New("multispin", backend.Config{Rows: 2048, Cols: 2048, Seed: 3, Workers: 1})
	if err != nil {
		return err
	}
	snap, err := eng.(ising.Snapshotter).Snapshot()
	if err != nil {
		return err
	}
	m["checkpoint.encode_ms"] = ms(perCall(microReps, microBatch, func() { ising.EncodeSnapshot(snap) }))
	return nil
}

// serviceInProcess submits replayed specs to an in-process service.Server
// configured like the workload's daemon (one worker, the isingd flag
// defaults, a checkpoint directory when the workload is durable) and
// measures Submit's own time and the allocation and GC cost of each
// Submit→Done.
func serviceInProcess(w workload, seed uint64, workdir string, m map[string]float64) error {
	dir := ""
	if w.durable {
		dir = filepath.Join(workdir, "inproc-ckpt")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	srv, skipped := service.New(service.Config{
		Workers: 1, QueueDepth: 64, CheckpointDir: dir, CheckpointInterval: 1000,
		CacheSize: 256, CacheBytes: 32 << 20, JobHistory: 1024,
	})
	defer srv.Close()
	if len(skipped) > 0 {
		return fmt.Errorf("in-process server skipped checkpoints: %v", skipped)
	}
	g := newGenerator(w, seed, 5000)
	jobs := replayCounts[w.name]
	var submitUS []float64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		spec := g.next().spec
		start := time.Now()
		j, err := srv.Submit(spec)
		submitUS = append(submitUS, float64(time.Since(start))/1e3)
		if err != nil {
			return fmt.Errorf("in-process submit: %w", err)
		}
		<-j.Done()
		if st := j.Status(); st.State != service.StateDone {
			return fmt.Errorf("in-process job %s ended %s: %s", j.ID(), st.State, st.Error)
		}
	}
	runtime.ReadMemStats(&after)
	m["service.submit_us"] = median(submitUS)
	m["service.alloc_kb_per_job"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(jobs)
	m["service.gc_per_1k_jobs"] = float64(after.NumGC-before.NumGC) * 1000 / float64(jobs)
	return nil
}
