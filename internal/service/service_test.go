package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
	"tpuising/internal/service/encode"
	"tpuising/internal/stats"
	"tpuising/internal/tempering"
)

// waitDone blocks until the job is terminal or the test times out.
func waitDone(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish: %+v", j.ID(), j.Status())
	}
	return j.Status()
}

func TestJobSpecNormalize(t *testing.T) {
	spec, err := JobSpec{Backend: "CPU", Rows: 32, Sweeps: 10}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Backend != "checkerboard" || spec.Cols != 32 || spec.SampleInterval != 1 {
		t.Fatalf("normalized spec: %+v", spec)
	}
	if spec.Temperature != ising.CriticalTemperature() {
		t.Fatalf("temperature default = %g, want Tc", spec.Temperature)
	}
	bad := []JobSpec{
		{Backend: "checkerboard", Rows: 0, Sweeps: 1},
		{Backend: "checkerboard", Rows: 8, Sweeps: 0},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, BurnIn: -1},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, Temperature: -2},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, CheckpointInterval: -1},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, SwapInterval: 5},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, Temperatures: []float64{2.0}},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, Temperatures: []float64{2.4, 2.0}},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, Temperatures: []float64{2.0, 2.4}, Temperature: 2.2},
		{Backend: "checkerboard", Rows: 8, Sweeps: 1, Temperatures: []float64{2.0, 2.4}, CheckpointInterval: 5},
	}
	for i, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("bad spec %d (%+v) passed validation", i, s)
		}
	}
}

// TestSpecErrorListsRegistry checks the shared-helper contract: a job spec
// with an unknown backend produces exactly the registry listing the CLI's
// -backend flag error produces.
func TestSpecErrorListsRegistry(t *testing.T) {
	_, err := JobSpec{Backend: "nope", Rows: 8, Sweeps: 1}.Normalize()
	if err == nil {
		t.Fatal("unknown backend passed validation")
	}
	if !strings.Contains(err.Error(), backend.List()) {
		t.Fatalf("spec error %q does not list the registry %q", err, backend.List())
	}
	_, cliErr := backend.Canonical("nope")
	if err.Error() != cliErr.Error() {
		t.Fatalf("spec error %q differs from the -backend flag error %q", err, cliErr)
	}
}

func TestCacheKeyIdentity(t *testing.T) {
	base := JobSpec{Backend: "multispin", Rows: 16, Cols: 64, Temperature: 2.4,
		Sweeps: 100, BurnIn: 10, Seed: 7, SampleInterval: 5}
	norm := func(s JobSpec) JobSpec {
		t.Helper()
		n, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	key := norm(base).CacheKey()
	// Workers and CheckpointInterval never change a result: same key.
	withWorkers := base
	withWorkers.Workers = 8
	withWorkers.CheckpointInterval = 50
	if norm(withWorkers).CacheKey() != key {
		t.Fatal("workers/checkpoint_interval must not change the cache key")
	}
	// Physics fields do.
	for name, mut := range map[string]func(*JobSpec){
		"seed":        func(s *JobSpec) { s.Seed = 8 },
		"temperature": func(s *JobSpec) { s.Temperature = 2.5 },
		"sweeps":      func(s *JobSpec) { s.Sweeps = 101 },
		"burnin":      func(s *JobSpec) { s.BurnIn = 11 },
		"sample":      func(s *JobSpec) { s.SampleInterval = 10 },
		"rows":        func(s *JobSpec) { s.Rows = 32 },
		"hot":         func(s *JobSpec) { s.Hot = true },
		"backend":     func(s *JobSpec) { s.Backend = "checkerboard"; s.Cols = 16 },
	} {
		changed := base
		mut(&changed)
		if norm(changed).CacheKey() == key {
			t.Errorf("changing %s must change the cache key", name)
		}
	}
}

func TestSubmitRunsJobAndStreamsSamples(t *testing.T) {
	srv, _ := New(Config{Workers: 2})
	defer srv.Close()
	spec := JobSpec{Backend: "checkerboard", Rows: 16, Sweeps: 40, BurnIn: 4,
		Temperature: 2.5, Seed: 11, SampleInterval: 4}
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("job did not complete: %+v", st)
	}
	samples, _, _, _ := j.watch()
	if len(samples) != 10 {
		t.Fatalf("streamed %d samples, want 10", len(samples))
	}
	var meanAbs, meanE float64
	for i, sm := range samples {
		if sm.Sweep != (i+1)*4 {
			t.Fatalf("sample %d at sweep %d, want %d", i, sm.Sweep, (i+1)*4)
		}
		if sm.Job != j.ID() {
			t.Fatalf("sample carries job %q, want %q", sm.Job, j.ID())
		}
		meanAbs += sm.AbsMagnetization
		meanE += sm.Energy
	}
	r := st.Result
	if got, want := r.MeanAbsMagnetization, meanAbs/10; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean |m| = %v, recomputed %v", got, want)
	}
	if got, want := r.MeanEnergy, meanE/10; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean E = %v, recomputed %v", got, want)
	}
	if r.Samples != 10 || r.Sweeps != 40 || r.BurnIn != 4 || r.Backend != "checkerboard" {
		t.Fatalf("result header: %+v", r)
	}
	if r.Step != uint64(2*(40+4)) {
		t.Fatalf("result step %d, want %d", r.Step, 2*(40+4))
	}
	if st.SweepsDone != 44 || st.TotalSweeps != 44 {
		t.Fatalf("progress: %+v", st)
	}
}

// TestCacheHitSkipsBackend is the cache acceptance test: resubmitting an
// identical spec returns the stored result without stepping any backend
// (asserted via the server's sweep counter), and a changed seed misses.
func TestCacheHitSkipsBackend(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	spec := JobSpec{Backend: "multispin", Rows: 8, Cols: 64, Sweeps: 30,
		Temperature: 2.2, Seed: 5, SampleInterval: 3}
	first, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitDone(t, first)
	ranSweeps := srv.Stats().SweepsRun
	if ranSweeps != 30 {
		t.Fatalf("first job ran %d sweeps, want 30", ranSweeps)
	}

	// Identical spec, different workers/checkpoint knobs: cache hit.
	dup := spec
	dup.Workers = 4
	second, err := srv.Submit(dup)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitDone(t, second)
	if !st2.Cached {
		t.Fatalf("identical resubmission was not served from cache: %+v", st2)
	}
	if got := srv.Stats(); got.SweepsRun != ranSweeps {
		t.Fatalf("cache hit stepped a backend: sweeps %d -> %d", ranSweeps, got.SweepsRun)
	}
	if srv.Stats().JobsCached != 1 {
		t.Fatalf("jobs_cached = %d, want 1", srv.Stats().JobsCached)
	}
	b1, _ := json.Marshal(st1.Result)
	b2, _ := json.Marshal(st2.Result)
	if string(b1) != string(b2) {
		t.Fatalf("cached result differs:\n%s\n%s", b1, b2)
	}

	// A changed seed is a different simulation: cache miss, backend runs.
	miss := spec
	miss.Seed = 6
	third, err := srv.Submit(miss)
	if err != nil {
		t.Fatal(err)
	}
	st3 := waitDone(t, third)
	if st3.Cached {
		t.Fatal("changed seed must miss the cache")
	}
	if got := srv.Stats().SweepsRun; got != ranSweeps+30 {
		t.Fatalf("cache miss ran %d sweeps total, want %d", got, ranSweeps+30)
	}
}

func TestCacheEviction(t *testing.T) {
	srv, _ := New(Config{Workers: 1, CacheSize: 2})
	defer srv.Close()
	spec := JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 2, Seed: 1}
	for seed := uint64(1); seed <= 3; seed++ {
		s := spec
		s.Seed = seed
		j, err := srv.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	if got := srv.Stats().CacheEntries; got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	// Seed 1 was evicted (oldest); seed 3 is still cached.
	oldest := spec
	j, _ := srv.Submit(oldest)
	if st := waitDone(t, j); st.Cached {
		t.Fatal("evicted entry served from cache")
	}
	newest := spec
	newest.Seed = 3
	j, _ = srv.Submit(newest)
	if st := waitDone(t, j); !st.Cached {
		t.Fatal("retained entry not served from cache")
	}
}

// TestCheckpointResumeByteIdentical is the checkpoint/resume acceptance
// test, run for checkerboard, multispin and the mesh-sharded engine: a job
// interrupted by a daemon shutdown and resumed by a fresh server over the
// same checkpoint directory produces a result and a sample stream
// byte-identical to an uninterrupted run of the same spec.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	specs := map[string]JobSpec{
		"checkerboard": {Backend: "checkerboard", Rows: 32, Cols: 32, Sweeps: 3000,
			BurnIn: 100, Temperature: 2.3, Seed: 42, SampleInterval: 50},
		"multispin": {Backend: "multispin", Rows: 64, Cols: 128, Sweeps: 20000,
			BurnIn: 500, Temperature: 2.3, Seed: 42, SampleInterval: 500, Workers: 1},
		"sharded": {Backend: "sharded", Rows: 64, Cols: 128, GridR: 2, GridC: 2, Sweeps: 8000,
			BurnIn: 200, Temperature: 2.3, Seed: 42, SampleInterval: 200},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			// Reference: uninterrupted run (no checkpointing at all).
			ref, _ := New(Config{Workers: 1})
			refJob, err := ref.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			refStatus := waitDone(t, refJob)
			refSamples, _, _, _ := refJob.watch()
			ref.Close()

			// Interrupted run: shut the daemon down mid-job, after at least
			// one periodic checkpoint has been written.
			dir := t.TempDir()
			srvA, _ := New(Config{Workers: 1, CheckpointDir: dir, CheckpointInterval: 256})
			jobA, err := srvA.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ckptPath := srvA.checkpointPath(jobA.ID())
			deadline := time.Now().Add(55 * time.Second)
			for {
				if _, err := os.Stat(ckptPath); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no checkpoint appeared: %+v", jobA.Status())
				}
				time.Sleep(time.Millisecond)
			}
			srvA.Close()
			stA := jobA.Status()
			if stA.State != StateQueued {
				t.Fatalf("interrupted job state %q (done before shutdown? raise Sweeps): %+v", stA.State, stA)
			}
			samplesA, _, _, _ := jobA.watch()

			// Fresh daemon over the same directory: the job resumes by ID
			// and finishes.
			srvB, skipped := New(Config{Workers: 1, CheckpointDir: dir, CheckpointInterval: 256})
			defer srvB.Close()
			if len(skipped) != 0 {
				t.Fatalf("resume skipped checkpoints: %v", skipped)
			}
			if srvB.Stats().JobsResumed != 1 {
				t.Fatalf("jobs_resumed = %d, want 1", srvB.Stats().JobsResumed)
			}
			jobB, err := srvB.Get(jobA.ID())
			if err != nil {
				t.Fatalf("resumed job lost its ID: %v", err)
			}
			stB := waitDone(t, jobB)
			if stB.State != StateDone {
				t.Fatalf("resumed job: %+v", stB)
			}
			samplesB, _, _, _ := jobB.watch()

			// Observables must be byte-identical once the wall-clock fields
			// (the only nondeterministic ones) are cleared.
			canon := func(r encode.Result) string {
				r.ElapsedSec, r.FlipsPerNs = 0, 0
				blob, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				return string(blob)
			}
			if canon(*refStatus.Result) != canon(*stB.Result) {
				t.Fatalf("resumed result differs from uninterrupted:\n%s\n%s",
					canon(*refStatus.Result), canon(*stB.Result))
			}
			// The interrupted stream's samples plus the resumed stream's
			// samples must be exactly the uninterrupted stream.
			joined := append(append([]encode.Sample(nil), samplesA...), samplesB...)
			if len(joined) != len(refSamples) {
				t.Fatalf("joined stream has %d samples, uninterrupted %d (split %d+%d)",
					len(joined), len(refSamples), len(samplesA), len(samplesB))
			}
			for i := range joined {
				got, want := joined[i], refSamples[i]
				got.Job, want.Job = "", ""
				if got != want {
					t.Fatalf("sample %d: resumed %+v, uninterrupted %+v", i, got, want)
				}
			}
			// Completion removes the checkpoint: nothing left to resume.
			if _, err := os.Stat(ckptPath); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("checkpoint survived completion: %v", err)
			}
		})
	}
}

// TestCancelRemovesCheckpointAndStops cancels a running job of every kind
// and checks that it ends canceled, that the worker stops sweeping it (the
// next job runs) and that no checkpoint — snapshot or intent record — is left
// on disk. The ladder swaps once per million sweeps, so it passes only if the
// runner notices the cancel within a chunk rather than once per round.
func TestCancelRemovesCheckpointAndStops(t *testing.T) {
	for name, spec := range map[string]JobSpec{
		"chain": {Backend: "checkerboard", Rows: 48, Cols: 48, Sweeps: 500000,
			Temperature: 2.3, Seed: 1, SampleInterval: 100},
		"batch": {Backend: "checkerboard", Rows: 48, Cols: 48, Sweeps: 500000,
			Temperature: 2.3, Seed: 1, SampleInterval: 100, Replicas: 4},
		"ladder": {Backend: "checkerboard", Rows: 48, Cols: 48, Sweeps: 5_000_000,
			Seed: 1, Temperatures: []float64{2.0, 2.5}, SwapInterval: 5_000_000},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srv, _ := New(Config{Workers: 1, CheckpointDir: dir, CheckpointInterval: 256})
			defer srv.Close()
			j, err := srv.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ckptPath := srv.checkpointPath(j.ID())
			deadline := time.Now().Add(55 * time.Second)
			for {
				_, err := os.Stat(ckptPath)
				if err == nil && j.Status().SweepsDone > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job never ran with a checkpoint on disk: %+v", j.Status())
				}
				time.Sleep(time.Millisecond)
			}
			if _, err := srv.Cancel(j.ID()); err != nil {
				t.Fatal(err)
			}
			st := waitDone(t, j)
			if st.State != StateCanceled {
				t.Fatalf("state %q, want canceled", st.State)
			}
			// The worker has noticed the cancel once another submit can run.
			j2, err := srv.Submit(JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 1, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, j2)
			if _, err := os.Stat(ckptPath); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("canceled job left a checkpoint: %v", err)
			}
			if srv.Stats().JobsCanceled != 1 {
				t.Fatalf("jobs_canceled = %d, want 1", srv.Stats().JobsCanceled)
			}
		})
	}
}

func TestQueueFullRejects(t *testing.T) {
	srv, _ := New(Config{Workers: 1, QueueDepth: 1})
	defer srv.Close()
	long := JobSpec{Backend: "checkerboard", Rows: 64, Cols: 64, Sweeps: 500000,
		Temperature: 2.3, SampleInterval: 1000}
	var ok int
	var sawFull bool
	for seed := uint64(1); seed <= 4; seed++ {
		s := long
		s.Seed = seed
		_, err := srv.Submit(s)
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrQueueFull):
			sawFull = true
		default:
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatalf("submitting 4 long jobs to a depth-1 queue never reported ErrQueueFull (%d accepted)", ok)
	}
}

// TestCheckpointRequestOnUnsupportedBackendFails checks the explicit-error
// path: a spec that asks for checkpoints on a non-snapshottable engine fails
// with a clear message instead of silently losing durability.
func TestCheckpointRequestOnUnsupportedBackendFails(t *testing.T) {
	dir := t.TempDir()
	srv, _ := New(Config{Workers: 1, CheckpointDir: dir})
	defer srv.Close()
	j, err := srv.Submit(JobSpec{Backend: "tpu", Rows: 16, Sweeps: 4, CheckpointInterval: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateFailed || !strings.Contains(st.Error, "Snapshotter") {
		t.Fatalf("expected a snapshot-support failure, got %+v", st)
	}
}

// TestTemperingJobMatchesDirectEnsemble runs replica-exchange jobs through
// the service and checks each against a direct per-replica tempering ladder
// of the same configuration, encoded the way isingbench's deep check encodes
// one: the whole canonical result, every sample (the coldest rung after each
// measured round, at sweep (round+1)*SwapInterval) and the progress counters
// must agree. The schedules cover a burn-in of whole rounds, one that rounds
// up, a run shorter than one round (which still measures one) and a swap
// after every sweep.
func TestTemperingJobMatchesDirectEnsemble(t *testing.T) {
	for _, tc := range []struct {
		burnIn, sweeps, swapInterval int
		burnRounds, rounds           int
	}{
		{10, 20, 5, 2, 4},
		{7, 20, 5, 2, 4},
		{0, 3, 5, 0, 1},
		{3, 3, 1, 3, 3},
	} {
		t.Run(fmt.Sprintf("burnin%d-sweeps%d-swap%d", tc.burnIn, tc.sweeps, tc.swapInterval), func(t *testing.T) {
			spec := JobSpec{Backend: "checkerboard", Rows: 8, Sweeps: tc.sweeps, BurnIn: tc.burnIn,
				Seed: 3, Temperatures: []float64{2.0, 2.4}, SwapInterval: tc.swapInterval}
			srv, _ := New(Config{Workers: 1})
			defer srv.Close()
			j, err := srv.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			st := waitDone(t, j)
			if st.State != StateDone {
				t.Fatalf("tempering job: %+v", st)
			}
			total := (tc.burnRounds + tc.rounds) * tc.swapInterval
			if st.SweepsDone != total || st.TotalSweeps != total {
				t.Fatalf("progress %d of %d sweeps, want %d of %d", st.SweepsDone, st.TotalSweeps, total, total)
			}

			norm, err := spec.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			ens, err := tempering.New(tempering.Config{
				Temperatures: norm.Temperatures, SwapInterval: norm.SwapInterval, Seed: norm.Seed, Workers: 1,
			}, func(slot int, temperature float64) (ising.Backend, error) {
				return backend.New(norm.Backend, backendConfig(norm, temperature, tempering.ReplicaSeed(norm.Seed, slot)))
			})
			if err != nil {
				t.Fatal(err)
			}
			ens.RunRounds(tc.burnRounds)
			var want []encode.Sample
			for round := 0; round < tc.rounds; round++ {
				ens.Round()
				ens.Measure()
				cold := ens.Backend(0)
				m := cold.Magnetization()
				want = append(want, encode.Sample{Job: j.ID(), Sweep: (round + 1) * tc.swapInterval,
					Magnetization: m, AbsMagnetization: math.Abs(m), Energy: cold.Energy()})
			}
			direct := encode.Result{
				Backend: norm.Backend, Rows: norm.Rows, Cols: norm.Cols,
				Temperature: norm.Temperatures[0], Seed: norm.Seed,
				Sweeps: norm.Sweeps, BurnIn: norm.BurnIn,
			}
			encode.Observables(&direct, ens.Backend(0))
			encode.Tempering(&direct, ens.Report())
			direct.Ops = ens.Counts().Ops

			got := *st.Result
			got.ElapsedSec, got.FlipsPerNs = 0, 0
			gotBlob, _ := json.Marshal(got)
			wantBlob, _ := json.Marshal(direct)
			if string(gotBlob) != string(wantBlob) {
				t.Fatalf("service result differs from the direct ladder:\n%s\n%s", gotBlob, wantBlob)
			}
			samples, _, _, _ := j.watch()
			if len(samples) != len(want) {
				t.Fatalf("streamed %d samples, direct ladder %d", len(samples), len(want))
			}
			for i := range want {
				if samples[i] != want[i] {
					t.Fatalf("sample %d: service %+v, direct %+v", i, samples[i], want[i])
				}
			}
		})
	}
}

// TestJobHistoryPruning checks that terminal jobs are evicted oldest-first
// beyond Config.JobHistory while their results stay reachable via the cache.
func TestJobHistoryPruning(t *testing.T) {
	srv, _ := New(Config{Workers: 1, JobHistory: 2})
	defer srv.Close()
	spec := JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 2}
	var ids []string
	for seed := uint64(1); seed <= 4; seed++ {
		s := spec
		s.Seed = seed
		j, err := srv.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID())
	}
	if got := len(srv.Jobs()); got != 2 {
		t.Fatalf("retained %d jobs, want 2", got)
	}
	if _, err := srv.Get(ids[0]); !errors.Is(err, ErrJobExpired) {
		t.Fatalf("oldest job should answer expired, got %v", err)
	}
	if _, err := srv.Get(ids[3]); err != nil {
		t.Fatalf("newest job should be retained: %v", err)
	}
	// The evicted job's result is still one cache hit away.
	first := spec
	first.Seed = 1
	j, err := srv.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, j); !st.Cached {
		t.Fatal("evicted job's result should be served from the cache")
	}
}

// TestResumeBurstBeyondQueueDepth checks that New never blocks on a restart
// burst: a checkpoint directory holding more jobs than QueueDepth must
// resume them all.
func TestResumeBurstBeyondQueueDepth(t *testing.T) {
	dir := t.TempDir()
	// Hand-craft three consistent checkpoints the way the daemon writes them.
	for i := 1; i <= 3; i++ {
		spec, err := (JobSpec{Backend: "checkerboard", Rows: 8, Sweeps: 40,
			Temperature: 2.5, Seed: uint64(i)}).Normalize()
		if err != nil {
			t.Fatal(err)
		}
		eng, err := backend.New(spec.Backend, backendConfig(spec, spec.Temperature, spec.Seed))
		if err != nil {
			t.Fatal(err)
		}
		var absAcc, eAcc stats.Accumulator
		const done = 10
		for sweep := 1; sweep <= done; sweep++ {
			eng.Sweep()
			if sweep%spec.SampleInterval == 0 {
				absAcc.Add(math.Abs(eng.Magnetization()))
				eAcc.Add(eng.Energy())
			}
		}
		snap, err := eng.(ising.Snapshotter).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("job-%06d", i)
		blob, err := encodeCheckpoint(&checkpointState{
			Job: id, Spec: spec, DoneSweeps: done,
			AbsM: absAcc.State(), Energy: eAcc.State(),
			Snapshot: ising.EncodeSnapshot(snap),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+checkpointExt), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	srv, skipped := New(Config{Workers: 1, QueueDepth: 1, CheckpointDir: dir, CheckpointInterval: 20})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("New blocked for %v on the resume burst", elapsed)
	}
	defer srv.Close()
	if len(skipped) != 0 {
		t.Fatalf("skipped: %v", skipped)
	}
	if got := srv.Stats().JobsResumed; got != 3 {
		t.Fatalf("jobs_resumed = %d, want 3", got)
	}
	for i := 1; i <= 3; i++ {
		j, err := srv.Get(fmt.Sprintf("job-%06d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitDone(t, j); st.State != StateDone || st.SweepsDone != 40 {
			t.Fatalf("resumed job %d: %+v", i, st)
		}
	}
}

// TestRemovedBackendCheckpointFailsLoudly: "sharded-ensemble" is now an
// alias of sharded, but earlier daemons ran single chains of it on their own
// engine and wrote snapshots under that name. Such a checkpoint must not be
// resumed silently: the job ends failed with an error naming both the
// snapshot's backend and the engine that refused it.
func TestRemovedBackendCheckpointFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	spec, err := (JobSpec{Backend: "sharded", Rows: 8, Cols: 128, GridR: 2, GridC: 2,
		Sweeps: 40, Temperature: 2.3, Seed: 5}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := backend.New(spec.Backend, backendConfig(spec, spec.Temperature, spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	var absAcc, eAcc stats.Accumulator
	const done = 10
	for sweep := 1; sweep <= done; sweep++ {
		eng.Sweep()
		if sweep%spec.SampleInterval == 0 {
			absAcc.Add(math.Abs(eng.Magnetization()))
			eAcc.Add(eng.Energy())
		}
	}
	snap, err := eng.(ising.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The old engine's snapshot carried the same spins, key and step under
	// its own name, and its daemon stored the spec under that name too.
	snap.Backend, spec.Backend = "sharded-ensemble", "sharded-ensemble"
	blob, err := encodeCheckpoint(&checkpointState{
		Job: "job-000001", Spec: spec, DoneSweeps: done,
		AbsM: absAcc.State(), Energy: eAcc.State(),
		Snapshot: ising.EncodeSnapshot(snap),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-000001"+checkpointExt), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, skipped := New(Config{Workers: 1, CheckpointDir: dir})
	defer srv.Close()
	if len(skipped) != 0 {
		t.Fatalf("skipped: %v", skipped)
	}
	j, err := srv.Get("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateFailed {
		t.Fatalf("old sharded-ensemble checkpoint resumed as %s, want failed: %+v", st.State, st)
	}
	if !strings.Contains(st.Error, `"sharded-ensemble"`) || !strings.Contains(st.Error, `"sharded"`) {
		t.Fatalf("error %q does not name both the snapshot's and the engine's backend", st.Error)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	srv.Close()
	if _, err := srv.Submit(JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}
