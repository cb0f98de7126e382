package service

import (
	"strings"
	"testing"

	"tpuising/internal/ising"
)

// TestReplicasValidation exercises the bounds and exclusions of the new
// Replicas field.
func TestReplicasValidation(t *testing.T) {
	base := JobSpec{Backend: "multispin", Rows: 8, Cols: 64, Sweeps: 4}
	for _, tc := range []struct {
		mutate  func(*JobSpec)
		wantErr string
	}{
		{func(s *JobSpec) { s.Replicas = -1 }, "must not be negative"},
		{func(s *JobSpec) { s.Replicas = MaxReplicas + 1 }, "at most"},
		{func(s *JobSpec) { s.Replicas = 4; s.Temperatures = []float64{2.0, 2.5} }, "mutually exclusive"},
		{func(s *JobSpec) { s.Replicas = 4; s.CheckpointInterval = 2 }, "cannot checkpoint"},
	} {
		spec := base
		tc.mutate(&spec)
		_, err := spec.Normalize()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("spec %+v: error %v, want it to mention %q", spec, err, tc.wantErr)
		}
	}
	// 0 and 1 both normalize to a single chain.
	for _, b := range []int{0, 1} {
		spec := base
		spec.Replicas = b
		norm, err := spec.Normalize()
		if err != nil || norm.Replicas != 1 {
			t.Errorf("Replicas=%d: normalized to %d (%v), want 1", b, norm.Replicas, err)
		}
	}
	spec := base
	spec.Replicas = MaxReplicas
	if _, err := spec.Normalize(); err != nil {
		t.Errorf("Replicas=%d rejected: %v", MaxReplicas, err)
	}
}

// TestReplicasCacheIdentity: the replica count is part of the cache key — a
// B=4 and a B=8 run of the same spec must never collide — while B=0 and B=1
// share the single-chain entry.
func TestReplicasCacheIdentity(t *testing.T) {
	norm := func(b int) JobSpec {
		s, err := JobSpec{Backend: "multispin", Rows: 8, Cols: 64, Sweeps: 4, Seed: 3, Replicas: b}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if norm(4).CacheKey() == norm(8).CacheKey() {
		t.Fatal("B=4 and B=8 share a cache key")
	}
	if norm(0).CacheKey() != norm(1).CacheKey() {
		t.Fatal("B=0 and B=1 are both single chains but have different cache keys")
	}
	if norm(1).CacheKey() == norm(2).CacheKey() {
		t.Fatal("single chain and B=2 share a cache key")
	}
}

// TestBatchJobFansOutLanes runs a batched job end to end and checks the
// per-lane fan-out: lane L of the batch must equal the single chain a
// separate job with seed ising.LaneSeed(seed, L) runs — the service-level
// form of the lane-equivalence contract — and the stream must carry one
// sample per lane per interval.
func TestBatchJobFansOutLanes(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	const lanes = 3
	spec := JobSpec{
		Backend: "multispin", Rows: 8, Cols: 64, Temperature: 2.4,
		Sweeps: 6, BurnIn: 2, Seed: 11, SampleInterval: 2, Replicas: lanes,
	}
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("batch job ended %s (%s)", st.State, st.Error)
	}
	if len(st.Result.Lanes) != lanes {
		t.Fatalf("result has %d lane rows, want %d", len(st.Result.Lanes), lanes)
	}
	samples, _, _, _ := j.watch()
	if want := lanes * (spec.Sweeps / spec.SampleInterval); len(samples) != want {
		t.Fatalf("job streamed %d samples, want %d (one per lane per interval)", len(samples), want)
	}
	perLane := map[int]int{}
	for _, smp := range samples {
		perLane[smp.Lane]++
	}
	for lane := 0; lane < lanes; lane++ {
		if perLane[lane] != spec.Sweeps/spec.SampleInterval {
			t.Fatalf("lane %d streamed %d samples, want %d", lane, perLane[lane], spec.Sweeps/spec.SampleInterval)
		}
	}
	// Fan-in check: each lane row equals a standalone single-chain job with
	// the lane's derived seed.
	for lane, row := range st.Result.Lanes {
		single := spec
		single.Replicas = 1
		single.Seed = ising.LaneSeed(spec.Seed, lane)
		sj, err := srv.Submit(single)
		if err != nil {
			t.Fatal(err)
		}
		sst := waitDone(t, sj)
		if sst.State != StateDone {
			t.Fatalf("lane-reference job ended %s (%s)", sst.State, sst.Error)
		}
		ref := sst.Result
		if row.Seed != single.Seed {
			t.Fatalf("lane %d row records seed %d, want %d", lane, row.Seed, single.Seed)
		}
		if row.Magnetization != ref.Magnetization || row.Energy != ref.Energy {
			t.Fatalf("lane %d final state (m=%v, e=%v) differs from standalone job (m=%v, e=%v)",
				lane, row.Magnetization, row.Energy, ref.Magnetization, ref.Energy)
		}
		if row.MeanAbsMagnetization != ref.MeanAbsMagnetization || row.MeanEnergy != ref.MeanEnergy {
			t.Fatalf("lane %d sample means differ from standalone job", lane)
		}
	}
	// A resubmission of the batch spec is a cache hit.
	dup, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, dup); !st.Cached {
		t.Fatal("identical batch spec was not served from the cache")
	}
}

// TestBatchJobAdapterBackend: a batched job over a non-multispin backend
// goes through the generic adapter and still fans out per-lane results.
func TestBatchJobAdapterBackend(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	j, err := srv.Submit(JobSpec{
		Backend: "checkerboard", Rows: 8, Sweeps: 3, Seed: 5, Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("adapter batch job ended %s (%s)", st.State, st.Error)
	}
	if len(st.Result.Lanes) != 2 {
		t.Fatalf("result has %d lane rows, want 2", len(st.Result.Lanes))
	}
	if st.Result.Lanes[0].Magnetization == st.Result.Lanes[1].Magnetization &&
		st.Result.Lanes[0].Energy == st.Result.Lanes[1].Energy {
		t.Fatal("both lanes report identical observables — lane seeds did not diverge")
	}
}

// TestBatchJobShardedEnsemble: a batched sharded-ensemble job runs all lanes
// through one composed (lane-packed × mesh-sharded) engine, and each lane row
// still equals a standalone single-chain job with the lane's derived seed —
// the batch and shard axes compose without changing any chain.
func TestBatchJobShardedEnsemble(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	spec := JobSpec{
		Backend: "sharded-ensemble", Rows: 8, Cols: 128, GridR: 2, GridC: 2,
		Temperature: 2.4, Sweeps: 6, Seed: 11, Replicas: 16, Hot: true,
	}
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone {
		t.Fatalf("sharded-ensemble batch job ended %s (%s)", st.State, st.Error)
	}
	if len(st.Result.Lanes) != spec.Replicas {
		t.Fatalf("result has %d lane rows, want %d", len(st.Result.Lanes), spec.Replicas)
	}
	for lane, row := range st.Result.Lanes {
		single := spec
		single.Replicas = 1
		single.Seed = ising.LaneSeed(spec.Seed, lane)
		sj, err := srv.Submit(single)
		if err != nil {
			t.Fatal(err)
		}
		sst := waitDone(t, sj)
		if sst.State != StateDone {
			t.Fatalf("lane-reference job ended %s (%s)", sst.State, sst.Error)
		}
		if row.Magnetization != sst.Result.Magnetization || row.Energy != sst.Result.Energy {
			t.Fatalf("lane %d final state (m=%v, e=%v) differs from standalone job (m=%v, e=%v)",
				lane, row.Magnetization, row.Energy, sst.Result.Magnetization, sst.Result.Energy)
		}
	}
}
