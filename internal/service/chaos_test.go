package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpuising/internal/service/encode"
)

// This file is the fault-injection suite: every test here breaks something —
// a worker, the checkpoint filesystem, the clock, the quota budget — and
// asserts the service degrades the documented way: loud failures, exact
// counters, no leaked temp files, no lost jobs.

// faultFS is a CheckpointFS that delegates to the real filesystem until a
// switch flips a primitive into failing — the injectable full disk (write
// side) or rotting disk (read side, for the recovery scan).
type faultFS struct {
	failWrite  atomic.Bool
	failRename atomic.Bool
	failRead   atomic.Bool
	// corruptRead, when set, serves the real file contents with one bit
	// flipped — a read path that silently returns rotten bytes.
	corruptRead atomic.Bool
}

func (f *faultFS) WriteFile(path string, data []byte) error {
	if f.failWrite.Load() {
		return errors.New("faultfs: disk full")
	}
	return osFS{}.WriteFile(path, data)
}

func (f *faultFS) ReadFile(path string) ([]byte, error) {
	if f.failRead.Load() {
		return nil, errors.New("faultfs: read error")
	}
	blob, err := osFS{}.ReadFile(path)
	if err == nil && f.corruptRead.Load() && len(blob) > 0 {
		blob[len(blob)/2] ^= 0x10
	}
	return blob, err
}

func (f *faultFS) Rename(oldPath, newPath string) error {
	if f.failRename.Load() {
		return errors.New("faultfs: rename denied")
	}
	return osFS{}.Rename(oldPath, newPath)
}

func (f *faultFS) ReadDir(dir string) ([]string, error) { return osFS{}.ReadDir(dir) }
func (f *faultFS) MkdirAll(dir string) error            { return osFS{}.MkdirAll(dir) }
func (f *faultFS) Remove(path string) error             { return osFS{}.Remove(path) }
func (f *faultFS) SyncDir(dir string) error             { return osFS{}.SyncDir(dir) }

// fakeClock is an injectable Config.Now for the TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Rewind moves the clock backwards — the NTP step / VM migration scenario
// the monotonic clock floor defends against.
func (c *fakeClock) Rewind(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(-d)
	c.mu.Unlock()
}

// Set jumps the clock to an absolute time, in either direction.
func (c *fakeClock) Set(t0 time.Time) {
	c.mu.Lock()
	c.t = t0
	c.mu.Unlock()
}

// tinySpec is a fast single-chain job for chaos scenarios.
func tinySpec(seed uint64) JobSpec {
	return JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 2, Seed: seed}
}

// TestWorkerPanicFailsJobLoudly induces a panic on the worker goroutine and
// asserts the blast radius: that one job fails with the panic value in its
// error, the panic is counted, and the worker survives to run the next job.
func TestWorkerPanicFailsJobLoudly(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	srv.testHookRun = func(j *Job) {
		if j.Spec().Seed == 13 {
			panic("induced chaos fault")
		}
	}
	bad, err := srv.Submit(tinySpec(13))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, bad); st.State != StateFailed || !strings.Contains(st.Error, "panicked") ||
		!strings.Contains(st.Error, "induced chaos fault") {
		t.Fatalf("panicked job should fail loudly, got %+v", st)
	}
	// The pool survived: the same (only) worker runs the next job.
	good, err := srv.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, good); st.State != StateDone {
		t.Fatalf("worker did not survive the panic: %+v", st)
	}
	st := srv.Stats()
	if st.WorkerPanics != 1 || st.JobsFailed != 1 {
		t.Fatalf("worker_panics = %d, jobs_failed = %d, want 1, 1", st.WorkerPanics, st.JobsFailed)
	}
}

// TestCheckpointWriteFailureAtSubmit checks the durable-admission contract: a
// server with a checkpoint directory that cannot record an accepted job's
// intent must fail the job loudly — never acknowledge a job it would lose in
// a restart.
func TestCheckpointWriteFailureAtSubmit(t *testing.T) {
	fs := &faultFS{}
	fs.failWrite.Store(true)
	srv, _ := New(Config{Workers: 1, CheckpointDir: t.TempDir(), CheckpointFS: fs})
	defer srv.Close()
	j, err := srv.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, j); st.State != StateFailed ||
		!strings.Contains(st.Error, "restart durability") || !strings.Contains(st.Error, "disk full") {
		t.Fatalf("job accepted without durable record should fail loudly, got %+v", st)
	}
	if got := srv.Stats().CheckpointFailures; got == 0 {
		t.Fatal("checkpoint_failures did not move")
	}
}

// TestCheckpointWriteFailureMidRun checks the periodic-checkpoint path: a
// disk that fills after admission fails the running job with the checkpoint
// error instead of silently continuing without resume data.
func TestCheckpointWriteFailureMidRun(t *testing.T) {
	fs := &faultFS{}
	srv, _ := New(Config{Workers: 1, CheckpointDir: t.TempDir(), CheckpointFS: fs})
	defer srv.Close()
	spec := JobSpec{Backend: "checkerboard", Rows: 8, Sweeps: 300, Seed: 7, CheckpointInterval: 64}
	// Admission succeeds (the intent record writes), then the disk "fills"
	// before the first periodic checkpoint at sweep 64.
	srv.testHookRun = func(*Job) { fs.failWrite.Store(true) }
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, j); st.State != StateFailed ||
		!strings.Contains(st.Error, "checkpointing job") || !strings.Contains(st.Error, "disk full") {
		t.Fatalf("checkpoint write failure should fail the job loudly, got %+v", st)
	}
	if got := srv.Stats().CheckpointFailures; got == 0 {
		t.Fatal("checkpoint_failures did not move")
	}
}

// TestCheckpointFailureCleansTempFile checks the atomic-write discipline
// under failure: when the rename step fails, the already-written temp file is
// removed — a failed write must not leave droppings for the next daemon's
// checkpoint scan to trip on.
func TestCheckpointFailureCleansTempFile(t *testing.T) {
	fs := &faultFS{}
	fs.failRename.Store(true)
	dir := t.TempDir()
	srv, _ := New(Config{Workers: 1, CheckpointDir: dir, CheckpointFS: fs})
	defer srv.Close()
	j, err := srv.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, j); st.State != StateFailed {
		t.Fatalf("job should fail on rename failure, got %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("checkpoint dir not clean after failed write: %s", e.Name())
	}
}

// TestCacheBytesBounded is the unbounded-cache regression test: a long
// seed-cycling run — the workload that used to grow the old map without
// bound — must hold the cache's byte gauge under the configured cap at every
// step, evicting (and counting) LRU entries to do it.
func TestCacheBytesBounded(t *testing.T) {
	const capBytes = 4 << 10
	srv, _ := New(Config{Workers: 2, CacheSize: 1 << 20, CacheBytes: capBytes})
	defer srv.Close()
	for seed := uint64(1); seed <= 60; seed++ {
		j, err := srv.Submit(tinySpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if st := srv.Stats(); st.CacheBytes > capBytes {
			t.Fatalf("after seed %d: cache_bytes %d exceeds the %d cap", seed, st.CacheBytes, capBytes)
		}
	}
	st := srv.Stats()
	if st.CacheEvictions == 0 {
		t.Fatalf("60 distinct results under a %d-byte cap should have evicted, stats %+v", capBytes, st)
	}
	if st.CacheEntries == 0 {
		t.Fatal("cache should retain the newest entries, not empty itself")
	}
}

// TestQuotaExhaustedPath checks the quota-rejection path end to end: a
// client at its budget is rejected with ErrQuotaExceeded (counted), other
// clients are unaffected, and draining a job restores admission.
func TestQuotaExhaustedPath(t *testing.T) {
	srv, _ := New(Config{Workers: 1, MaxQueuedPerClient: 2})
	defer srv.Close()
	release := make(chan struct{})
	srv.testHookRun = func(*Job) { <-release }
	spec := func(client string, seed uint64) JobSpec {
		s := tinySpec(seed)
		s.Client = client
		return s
	}
	var jobs []*Job
	for seed := uint64(1); seed <= 2; seed++ {
		j, err := srv.Submit(spec("alice", seed))
		if err != nil {
			t.Fatalf("submission %d within quota rejected: %v", seed, err)
		}
		jobs = append(jobs, j)
	}
	if _, err := srv.Submit(spec("alice", 3)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third job should exhaust alice's quota, got %v", err)
	}
	if _, err := srv.Submit(spec("bob", 4)); err != nil {
		t.Fatalf("alice's quota must not throttle bob: %v", err)
	}
	if got := srv.Stats().QuotaRejections; got != 1 {
		t.Fatalf("quota_rejections = %d, want 1", got)
	}
	close(release)
	for _, j := range jobs {
		waitDone(t, j)
	}
	if _, err := srv.Submit(spec("alice", 5)); err != nil {
		t.Fatalf("drained quota should admit again: %v", err)
	}
}

// TestQuotaAdmissionDeterministic is the quota determinism contract: the
// same submission mix produces the same per-client accept/reject decisions
// for ANY worker count, because admission counts a client's queued and
// running jobs together — the split between those two states is the only
// thing worker-drain timing can move.
func TestQuotaAdmissionDeterministic(t *testing.T) {
	mix := []string{"a", "a", "b", "a", "c", "b", "a", "c", "a", "b", "c", "a", "b", "c", "c"}
	var want []bool
	for _, workers := range []int{1, 2, 8} {
		srv, _ := New(Config{Workers: workers, MaxQueuedPerClient: 2, MaxRunningPerClient: 1})
		release := make(chan struct{})
		srv.testHookRun = func(*Job) { <-release }
		var got []bool
		for i, client := range mix {
			s := tinySpec(uint64(i + 1))
			s.Client = client
			_, err := srv.Submit(s)
			if err != nil && !errors.Is(err, ErrQuotaExceeded) {
				t.Fatalf("workers=%d submission %d: unexpected error %v", workers, i, err)
			}
			got = append(got, err == nil)
		}
		close(release)
		srv.Close()
		if want == nil {
			want = got
			continue
		}
		for i := range mix {
			if got[i] != want[i] {
				t.Fatalf("admission decisions depend on worker count: workers=%d decided %v, workers=1 decided %v",
					workers, got, want)
			}
		}
	}
	// Sanity: the mix actually exercised both outcomes.
	accepted := 0
	for _, ok := range want {
		if ok {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(mix) {
		t.Fatalf("mix should mix accepts and rejects, got %d/%d accepted", accepted, len(mix))
	}
}

// TestPrioritySchedulingOrder checks the dequeue policy: with one worker
// pinned by a blocker, queued jobs run highest priority first, FIFO within a
// priority.
func TestPrioritySchedulingOrder(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	release := make(chan struct{})
	var mu sync.Mutex
	var ran []uint64
	srv.testHookRun = func(j *Job) {
		mu.Lock()
		ran = append(ran, j.Spec().Seed)
		mu.Unlock()
		if j.Spec().Seed == 999 {
			<-release
		}
	}
	blocker, err := srv.Submit(tinySpec(999))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the blocker to occupy the only worker, so the rest queue up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		started := len(ran) > 0
		mu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	var jobs []*Job
	for _, sub := range []struct {
		seed     uint64
		priority int
	}{{10, 0}, {51, 5}, {90, 9}, {52, 5}} {
		s := tinySpec(sub.seed)
		s.Priority = sub.priority
		j, err := srv.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(release)
	waitDone(t, blocker)
	for _, j := range jobs {
		waitDone(t, j)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []uint64{999, 90, 51, 52, 10}
	if fmt.Sprint(ran) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v (highest priority first, FIFO within)", ran, want)
	}
}

// TestJobTTLEviction drives Config.JobTTL with a fake clock: a terminal job
// older than the TTL is evicted (counted, answering "expired") even though
// the history count bound is nowhere near.
func TestJobTTLEviction(t *testing.T) {
	clock := newFakeClock()
	srv, _ := New(Config{Workers: 1, JobTTL: time.Minute, Now: clock.Now})
	defer srv.Close()
	j, err := srv.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if _, err := srv.Get(j.ID()); err != nil {
		t.Fatalf("fresh terminal job should be retained: %v", err)
	}
	clock.Advance(2 * time.Minute)
	srv.pruneJobs()
	if _, err := srv.Get(j.ID()); !errors.Is(err, ErrJobExpired) {
		t.Fatalf("job past its TTL should answer expired, got %v", err)
	}
	if got := srv.Stats().JobsEvicted; got != 1 {
		t.Fatalf("jobs_evicted = %d, want 1", got)
	}
}

// TestCacheTTLExpiry drives Config.CacheTTL with a fake clock: an entry past
// its TTL is a miss (and a counted eviction), never a stale hit.
func TestCacheTTLExpiry(t *testing.T) {
	clock := newFakeClock()
	srv, _ := New(Config{Workers: 1, CacheTTL: time.Minute, Now: clock.Now})
	defer srv.Close()
	spec := tinySpec(1)
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	j, _ = srv.Submit(spec)
	if st := waitDone(t, j); !st.Cached {
		t.Fatal("fresh entry should hit the cache")
	}
	clock.Advance(2 * time.Minute)
	j, _ = srv.Submit(spec)
	if st := waitDone(t, j); st.Cached {
		t.Fatal("expired entry must not be served")
	}
	if st := srv.Stats(); st.CacheEvictions == 0 {
		t.Fatalf("TTL expiry should count as an eviction, stats %+v", st)
	}
}

// TestExpiredVsUnknown pins the Get error taxonomy: an ID this server issued
// and then evicted answers ErrJobExpired; an ID it never issued — numeric or
// garbage — answers ErrUnknownJob.
func TestExpiredVsUnknown(t *testing.T) {
	srv, _ := New(Config{Workers: 1, JobHistory: 1})
	defer srv.Close()
	var first *Job
	for seed := uint64(1); seed <= 3; seed++ {
		j, err := srv.Submit(tinySpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if first == nil {
			first = j
		}
	}
	if _, err := srv.Get(first.ID()); !errors.Is(err, ErrJobExpired) {
		t.Fatalf("evicted ID should answer expired, got %v", err)
	}
	for _, id := range []string{"job-999999", "nonsense", "job-abc", "5"} {
		if _, err := srv.Get(id); !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("Get(%q) = %v, want ErrUnknownJob", id, err)
		}
	}
}

// TestGracefulUpgradeByteIdentical is the in-process graceful-upgrade test:
// a server loaded with a mixed fleet of jobs — snapshotting singles, a
// tempering ladder and a batched ensemble, neither of which can snapshot —
// is shut down mid-flight and a fresh server over the same checkpoint
// directory finishes every job with results byte-identical to uninterrupted
// runs. Snapshot jobs resume mid-sweep; snapshotless jobs rerun from their
// durable intent records, which the deterministic engines turn into the
// same bytes. (cmd/isingd's TestGracefulUpgradeSIGTERM is the same contract
// through a real process and a real signal.)
func TestGracefulUpgradeByteIdentical(t *testing.T) {
	specs := []JobSpec{
		{Backend: "checkerboard", Rows: 32, Sweeps: 3000, BurnIn: 100, Temperature: 2.3, Seed: 1, SampleInterval: 100},
		{Backend: "checkerboard", Rows: 32, Sweeps: 3000, BurnIn: 100, Temperature: 2.5, Seed: 2, SampleInterval: 100},
		{Backend: "multispin", Rows: 32, Cols: 64, Sweeps: 6000, BurnIn: 200, Temperature: 2.3, Seed: 3, SampleInterval: 500, Workers: 1},
		{Backend: "checkerboard", Rows: 24, Sweeps: 2500, Temperature: 2.2, Seed: 4, SampleInterval: 100},
		{Backend: "checkerboard", Rows: 24, Sweeps: 2500, Temperature: 2.4, Seed: 5, SampleInterval: 100},
		{Backend: "checkerboard", Rows: 16, Sweeps: 2000, Temperatures: []float64{2.0, 2.3, 2.6}, Seed: 6, SampleInterval: 100, SwapInterval: 10},
		{Backend: "multispin", Rows: 16, Cols: 64, Sweeps: 2000, Temperature: 2.3, Seed: 7, SampleInterval: 200, Replicas: 4, Workers: 1},
		{Backend: "checkerboard", Rows: 32, Sweeps: 2800, Temperature: 2.35, Seed: 8, SampleInterval: 100},
	}
	canon := func(r *encode.Result) string {
		c := *r
		c.ElapsedSec, c.FlipsPerNs = 0, 0
		blob, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}

	// Reference: every spec run to completion, uninterrupted.
	ref, _ := New(Config{Workers: 4})
	want := make([]string, len(specs))
	for i, spec := range specs {
		j, err := ref.Submit(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		st := waitDone(t, j)
		if st.State != StateDone {
			t.Fatalf("reference job %d: %+v", i, st)
		}
		want[i] = canon(st.Result)
	}
	ref.Close()

	// The "old" daemon: all eight jobs in flight on two workers, then a
	// graceful shutdown mid-run.
	dir := t.TempDir()
	srvA, _ := New(Config{Workers: 2, CheckpointDir: dir, CheckpointInterval: 256})
	ids := make([]string, len(specs))
	for i, spec := range specs {
		j, err := srvA.Submit(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		ids[i] = j.ID()
	}
	time.Sleep(50 * time.Millisecond) // let some jobs make real progress
	srvA.Close()

	// The "new" daemon over the same checkpoint directory finishes them all.
	srvB, skipped := New(Config{Workers: 4, CheckpointDir: dir, CheckpointInterval: 256})
	defer srvB.Close()
	if len(skipped) != 0 {
		t.Fatalf("upgrade skipped checkpoints: %v", skipped)
	}
	for i, id := range ids {
		j, err := srvB.Get(id)
		if err != nil {
			// Jobs that finished before the shutdown live on the old server.
			var errA error
			j, errA = srvA.Get(id)
			if errA != nil {
				t.Fatalf("job %s lost in the upgrade: %v / %v", id, err, errA)
			}
		}
		st := waitDone(t, j)
		if st.State != StateDone {
			t.Fatalf("job %s after upgrade: %+v", id, st)
		}
		if got := canon(st.Result); got != want[i] {
			t.Fatalf("job %s (spec %d) result differs after upgrade:\n got %s\nwant %s", id, i, got, want[i])
		}
	}
	// Nothing left to resume: completion removed every checkpoint.
	leftovers, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("checkpoint dir not empty after all jobs finished: %v", leftovers)
	}
}

// TestJobRetentionBounded runs 20x JobHistory jobs that end every way a job
// can end — completions, cache hits, failures and cancels of running jobs —
// and checks the retention bookkeeping after each: the job table, the
// listing order and the finish-order FIFO stay within a constant multiple
// of JobHistory, and at the end exactly the jobs beyond JobHistory have
// been evicted, the most recently finished ones retained.
func TestJobRetentionBounded(t *testing.T) {
	const history, n = 8, 20 * 8
	srv, _ := New(Config{Workers: 1, JobHistory: history})
	defer srv.Close()
	checkBounds := func(i int) {
		t.Helper()
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if len(srv.retired) > history || len(srv.jobs) > 2*history || len(srv.order) > 4*history+16 {
			t.Fatalf("after job %d: %d retired, %d jobs, %d listed IDs (JobHistory %d)",
				i, len(srv.retired), len(srv.jobs), len(srv.order), history)
		}
	}
	var last []*Job
	for i := 0; i < n; i++ {
		var spec JobSpec
		switch i % 5 {
		case 0, 1: // completes
			spec = tinySpec(uint64(i + 1))
		case 2: // a cache hit on the job before last
			spec = tinySpec(uint64(i - 1))
		case 3: // fails at run time: checkpoints without a checkpoint directory
			spec = tinySpec(uint64(i + 1))
			spec.Backend, spec.Cols, spec.CheckpointInterval = "multispin", 64, 1
		case 4: // canceled while running
			spec = JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 1 << 30, Seed: uint64(i + 1)}
		}
		j, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			for j.Status().State == StateQueued {
				time.Sleep(time.Millisecond)
			}
			if _, err := srv.Cancel(j.ID()); err != nil {
				t.Fatal(err)
			}
		}
		st := waitDone(t, j)
		want := map[int]JobState{0: StateDone, 1: StateDone, 2: StateDone, 3: StateFailed, 4: StateCanceled}[i%5]
		if st.State != want || (i%5 == 2) != st.Cached {
			t.Fatalf("job %d (kind %d): state %s cached %v, want %s", i, i%5, st.State, st.Cached, want)
		}
		last = append(last, j)
		checkBounds(i)
	}
	// A terminal job retires right after Done closes; wait for the last.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().JobsEvicted < n-history && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().JobsEvicted; got != n-history {
		t.Fatalf("jobs_evicted = %d, want %d", got, n-history)
	}
	jobs := srv.Jobs()
	if len(jobs) != history {
		t.Fatalf("retained %d jobs, want %d", len(jobs), history)
	}
	for k, j := range jobs {
		if want := last[n-history+k]; j != want {
			t.Fatalf("retained job %d is %s, want %s", k, j.ID(), want.ID())
		}
	}
	for _, j := range last[:n-history] {
		if _, err := srv.Get(j.ID()); !errors.Is(err, ErrJobExpired) {
			t.Fatalf("evicted job %s: Get = %v, want ErrJobExpired", j.ID(), err)
		}
	}
}
