package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tpuising/internal/service/encode"
)

// This file is the crash-only recovery suite: every test here interrupts,
// mangles or time-warps the durable state a restarted daemon recovers from,
// and asserts the documented contract — corrupt files are quarantined (never
// deleted, never resumed, never fatal), torn writes are swept, legacy files
// stay readable, and a skewed wall clock cannot corrupt job ages. The
// process-level half of the suite (kill -9 against a real daemon) lives in
// cmd/isingd.

// harvestLiveCheckpoint runs a long job until its first periodic snapshot
// checkpoint lands, then shuts the daemon down and returns the file bytes —
// a genuine mid-run v2 checkpoint for the corruption matrix to mutilate. The
// job is always job-000001 (fresh server).
func harvestLiveCheckpoint(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	srv, _ := New(Config{Workers: 1, CheckpointDir: dir, CheckpointInterval: 256})
	defer srv.Close()
	spec := JobSpec{Backend: "checkerboard", Rows: 32, Cols: 32, Sweeps: 2_000_000,
		Temperature: 2.3, Seed: 7, SampleInterval: 1000}
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() != "job-000001" {
		t.Fatalf("fresh server issued %q, want job-000001", j.ID())
	}
	path := srv.checkpointPath(j.ID())
	deadline := time.Now().Add(55 * time.Second)
	for {
		// Atomic-replace writes mean this read sees either the intent record
		// or a complete snapshot checkpoint, never a torn one.
		if blob, err := os.ReadFile(path); err == nil {
			if cs, err := parseCheckpoint(blob, path); err == nil && cs.DoneSweeps > 0 {
				return blob
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot checkpoint appeared: %+v", j.Status())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCorruptCheckpointMatrix is the crash-point matrix: one genuine mid-run
// checkpoint, mutilated at every structural boundary — truncations on either
// side of the header, doubled and trailing-garbage files, single bit flips in
// header and payload, and a well-formed file carrying an engine snapshot for a
// batch or a ladder spec (only single chains snapshot) or for a backend the
// registry no longer has — each restarted over in a fresh daemon. Every
// mutation must take the same path: reported in the scan's skip list,
// counted in checkpoint_corrupt, moved byte-for-byte into quarantine/
// (evidence, never deleted), its job answering ErrJobCorrupt, and its ID
// never reissued.
func TestCorruptCheckpointMatrix(t *testing.T) {
	blob := harvestLiveCheckpoint(t)
	nl := bytes.IndexByte(blob, '\n')
	if nl < 0 {
		t.Fatal("harvested checkpoint has no header line")
	}
	flip := func(off int) []byte {
		out := append([]byte(nil), blob...)
		out[off] ^= 0x01
		return out
	}
	// respec re-encodes the genuine checkpoint, checksum intact, under a
	// changed spec: the file is well formed but claims what no daemon writes.
	respec := func(f func(*JobSpec)) []byte {
		cs, err := parseCheckpoint(blob, "job-000001"+checkpointExt)
		if err != nil {
			t.Fatal(err)
		}
		f(&cs.Spec)
		out, err := encodeCheckpoint(cs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mutations := map[string][]byte{
		"empty":              {},
		"truncated-header":   blob[:nl/2],
		"truncated-payload":  blob[:nl+1+(len(blob)-nl-1)/2],
		"truncated-tail":     blob[:len(blob)-1],
		"doubled":            append(append([]byte(nil), blob...), blob...),
		"trailing-garbage":   append(append([]byte(nil), blob...), "garbage"...),
		"bitflip-header":     flip(len(checkpointHeaderPrefix) + len("crc32c=")),
		"bitflip-payload":    flip(nl + 1 + (len(blob)-nl-1)/2),
		"snapshot-for-batch": respec(func(s *JobSpec) { s.Replicas = 4 }),
		"snapshot-for-ladder": respec(func(s *JobSpec) {
			s.Temperature, s.Temperatures, s.SwapInterval = 0, []float64{2.0, 2.5}, 5
		}),
		// The shared-random backend was removed: its checkpoint must never
		// resume as a per-site multispin chain.
		"removed-backend": respec(func(s *JobSpec) { s.Backend = "multispin-shared" }),
	}
	for name, mutated := range mutations {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "job-000001"+checkpointExt)
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			srv, skipped := New(Config{Workers: 1, CheckpointDir: dir})
			defer srv.Close()
			if len(skipped) != 1 {
				t.Fatalf("scan skipped %d files, want 1: %v", len(skipped), skipped)
			}
			st := srv.Stats()
			if st.CheckpointCorrupt != 1 || st.JobsResumed != 0 {
				t.Fatalf("checkpoint_corrupt = %d, jobs_resumed = %d, want 1, 0",
					st.CheckpointCorrupt, st.JobsResumed)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt file left in the scan path: %v", err)
			}
			evidence, err := os.ReadFile(filepath.Join(dir, quarantineDir, "job-000001"+checkpointExt))
			if err != nil {
				t.Fatalf("corrupt file not quarantined: %v", err)
			}
			if !bytes.Equal(evidence, mutated) {
				t.Fatal("quarantined evidence is not byte-identical to the corrupt file")
			}
			if _, err := srv.Get("job-000001"); !errors.Is(err, ErrJobCorrupt) {
				t.Fatalf("corrupt job's ID answered %v, want ErrJobCorrupt", err)
			}
			// The verdict is not shadowed: a fresh job never reuses the ID.
			j, err := srv.Submit(tinySpec(3))
			if err != nil {
				t.Fatal(err)
			}
			if j.ID() == "job-000001" {
				t.Fatal("corrupt job's ID was reissued to a fresh job")
			}
		})
	}
	// Control: an unmutated copy of the same bytes resumes cleanly — the
	// quarantine path triggers on corruption, not on this file's shape. (Byte
	// identity of the resumed observables is pinned separately by
	// TestCheckpointResumeByteIdentical and the cmd/isingd kill -9 e2e.)
	t.Run("valid-control", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "job-000001"+checkpointExt), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, skipped := New(Config{Workers: 1, CheckpointDir: dir})
		defer srv.Close()
		if len(skipped) != 0 {
			t.Fatalf("clean checkpoint skipped: %v", skipped)
		}
		st := srv.Stats()
		if st.JobsResumed != 1 || st.CheckpointCorrupt != 0 {
			t.Fatalf("jobs_resumed = %d, checkpoint_corrupt = %d, want 1, 0",
				st.JobsResumed, st.CheckpointCorrupt)
		}
		if _, err := srv.Get("job-000001"); err != nil {
			t.Fatalf("resumed job lost its ID: %v", err)
		}
	})
}

// TestCheckpointV1ReadCompat pins the upgrade path: a bare-JSON version-1
// file written by an older daemon (no checksum header, no admission time)
// must resume on today's daemon and produce the byte-identical result of a
// direct run — old durable state survives the codec bump.
func TestCheckpointV1ReadCompat(t *testing.T) {
	spec := JobSpec{Backend: "checkerboard", Rows: 16, Sweeps: 200,
		Temperature: 2.3, Seed: 11, SampleInterval: 50}

	ref, _ := New(Config{Workers: 1})
	refJob, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refStatus := waitDone(t, refJob)
	ref.Close()

	v1, err := json.Marshal(&checkpointState{Version: checkpointVersionV1, Job: "job-000001", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-000001"+checkpointExt), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, skipped := New(Config{Workers: 1, CheckpointDir: dir})
	defer srv.Close()
	if len(skipped) != 0 {
		t.Fatalf("v1 checkpoint skipped: %v", skipped)
	}
	if srv.Stats().JobsResumed != 1 {
		t.Fatalf("jobs_resumed = %d, want 1", srv.Stats().JobsResumed)
	}
	j, err := srv.Get("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("v1-resumed job: %+v", st)
	}
	canon := func(r encode.Result) string {
		r.ElapsedSec, r.FlipsPerNs = 0, 0
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	if canon(*refStatus.Result) != canon(*st.Result) {
		t.Fatalf("v1-resumed result differs from direct run:\n%s\n%s",
			canon(*refStatus.Result), canon(*st.Result))
	}
}

// TestStartupSweepsStaleTempFiles plants the dropping a kill -9 between
// write and rename leaves behind — a .ckpt.tmp staging file — next to a
// valid checkpoint, and asserts the startup scan sweeps the one (counted)
// while resuming the other untouched.
func TestStartupSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "job-000003"+checkpointExt+checkpointTmpExt)
	if err := os.WriteFile(tmp, []byte("half a checkpoint, interrupted mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	blob, err := encodeCheckpoint(&checkpointState{Job: "job-000001", Spec: tinySpec(4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-000001"+checkpointExt), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, skipped := New(Config{Workers: 1, CheckpointDir: dir})
	defer srv.Close()
	if len(skipped) != 0 {
		t.Fatalf("scan skipped: %v", skipped)
	}
	st := srv.Stats()
	if st.CheckpointTmpSwept != 1 || st.JobsResumed != 1 || st.CheckpointCorrupt != 0 {
		t.Fatalf("tmp_swept = %d, resumed = %d, corrupt = %d, want 1, 1, 0",
			st.CheckpointTmpSwept, st.JobsResumed, st.CheckpointCorrupt)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived the sweep: %v", err)
	}
}

// TestHTTPCorruptVsExpiredTaxonomy pins the client-visible 410 taxonomy:
// a job lost to checkpoint corruption and a job evicted by TTL both answer
// Gone — the ID is known but will never answer again — with distinct error
// text naming which fate it was.
func TestHTTPCorruptVsExpiredTaxonomy(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-000001"+checkpointExt), []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
	clock := newFakeClock()
	srv, skipped := New(Config{Workers: 1, CheckpointDir: dir, JobTTL: time.Minute, Now: clock.Now})
	defer srv.Close()
	if len(skipped) != 1 {
		t.Fatalf("scan skipped %d files, want 1", len(skipped))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fetch := func(id string) (int, string) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := fetch("job-000001"); code != http.StatusGone || !strings.Contains(body, "corrupt") {
		t.Fatalf("corrupt job answered %d %q, want 410 naming corruption", code, body)
	}

	j, err := srv.Submit(tinySpec(6))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	clock.Advance(2 * time.Minute)
	srv.pruneJobs()
	if code, body := fetch(j.ID()); code != http.StatusGone || !strings.Contains(body, "expired") {
		t.Fatalf("expired job answered %d %q, want 410 naming expiry", code, body)
	}
}

// TestClockSkewPausesNotRewinds drives Config.Now backwards and asserts the
// server's internal clock pauses at its high-water mark instead of following:
// observed time never decreases, TTL ages stop growing during the skew
// (nothing is evicted early or revived), and eviction resumes once the wall
// clock passes the floor again.
func TestClockSkewPausesNotRewinds(t *testing.T) {
	clock := newFakeClock()
	srv, _ := New(Config{Workers: 1, JobTTL: time.Minute, Now: clock.Now})
	defer srv.Close()
	j, err := srv.Submit(tinySpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	before := srv.now()
	clock.Rewind(time.Hour)
	if got := srv.now(); got.Before(before) {
		t.Fatalf("server time went backwards: %v then %v", before, got)
	}
	// Time is paused at the floor: the finished job does not age, however
	// long the wall clock spends in the past.
	clock.Advance(30 * time.Minute) // still 30m behind the floor
	srv.pruneJobs()
	if _, err := srv.Get(j.ID()); err != nil {
		t.Fatalf("job evicted while the clock was rewound: %v", err)
	}
	// Once the wall clock passes the floor, ages grow again and the TTL
	// applies as documented.
	clock.Advance(30*time.Minute + 2*time.Minute)
	srv.pruneJobs()
	if _, err := srv.Get(j.ID()); !errors.Is(err, ErrJobExpired) {
		t.Fatalf("TTL stopped working after skew recovery: %v", err)
	}
}

// TestClockSkewAcrossRestart is the restart half of the skew contract: a
// daemon restarted on a host whose wall clock stepped backwards (NTP
// correction, VM migration) folds the persisted admission times into its
// clock floor, so resumed jobs never have negative ages and the pre-crash
// timeline cannot be re-entered.
func TestClockSkewAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clockA := newFakeClock()
	t0 := clockA.Now()
	srvA, _ := New(Config{Workers: 1, CheckpointDir: dir, CheckpointInterval: 256, Now: clockA.Now})
	spec := JobSpec{Backend: "checkerboard", Rows: 32, Cols: 32, Sweeps: 2_000_000,
		Temperature: 2.3, Seed: 9, SampleInterval: 1000}
	jA, err := srvA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	srvA.Close()

	// The replacement daemon boots an hour in the past.
	clockB := newFakeClock()
	clockB.Set(t0.Add(-time.Hour))
	srvB, skipped := New(Config{Workers: 1, CheckpointDir: dir, CheckpointInterval: 256, Now: clockB.Now})
	defer srvB.Close()
	if len(skipped) != 0 {
		t.Fatalf("resume skipped: %v", skipped)
	}
	jB, err := srvB.Get(jA.ID())
	if err != nil {
		t.Fatalf("job lost across skewed restart: %v", err)
	}
	if !jB.admittedAt.Equal(t0) {
		t.Fatalf("admission time not persisted: got %v, want %v", jB.admittedAt, t0)
	}
	// The persisted admission time advanced the floor past the skewed wall
	// clock: the server observes no time before the job was admitted.
	if now := srvB.now(); now.Before(t0) {
		t.Fatalf("restarted server observes %v, before the job's admission %v", now, t0)
	}
	if age := srvB.now().Sub(jB.admittedAt); age < 0 {
		t.Fatalf("resumed job has negative age %v", age)
	}
}

// TestQuotaFairnessUnderStarvationFlood documents the fairness contract the
// per-client running cap buys: one client flooding the queue with
// highest-priority jobs cannot monopolize the pool, because the dequeue
// skips clients at their MaxRunningPerClient cap — a low-priority job from a
// quiet client runs on the remaining worker while the flood waits.
func TestQuotaFairnessUnderStarvationFlood(t *testing.T) {
	srv, _ := New(Config{Workers: 2, MaxRunningPerClient: 1})
	defer srv.Close()
	release := make(chan struct{})
	released := false
	// Unblock the hooked worker before srv.Close waits on it (LIFO: this
	// deferred func runs first), whatever path the test exits by.
	defer func() {
		if !released {
			close(release)
		}
	}()
	started := make(chan struct{}, 8)
	srv.testHookRun = func(j *Job) {
		if j.Spec().Client == "flood" {
			started <- struct{}{}
			<-release
		}
	}
	floodSpec := func(seed uint64) JobSpec {
		s := tinySpec(seed)
		s.Client, s.Priority = "flood", 9
		return s
	}
	first, err := srv.Submit(floodSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the flood's first job occupies a worker (and the cap).
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatalf("flood job never started: %+v", first.Status())
	}
	var flood []*Job
	for seed := uint64(101); seed < 105; seed++ {
		j, err := srv.Submit(floodSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		flood = append(flood, j)
	}
	victim := tinySpec(1)
	victim.Client, victim.Priority = "victim", 0
	v, err := srv.Submit(victim)
	if err != nil {
		t.Fatal(err)
	}
	// The victim completes while the flood still holds its one slot: the
	// second worker skipped four queued priority-9 jobs to reach it.
	if st := waitDone(t, v); st.State != StateDone {
		t.Fatalf("victim job: %+v", st)
	}
	// The flood's first job still occupies its worker (blocked in the hook,
	// so not yet marked running) and the backlog has not moved.
	if st := first.Status().State; st == StateDone {
		t.Fatalf("flood's blocked job should not have finished, state %q", st)
	}
	for _, j := range flood {
		if st := j.Status().State; st != StateQueued {
			t.Fatalf("flood backlog should still be queued, state %q", st)
		}
	}
	released = true
	close(release)
	for _, j := range append(flood, first) {
		if st := waitDone(t, j); st.State != StateDone {
			t.Fatalf("flood job after release: %+v", st)
		}
	}
}
