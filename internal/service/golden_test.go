package service

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// TestJobKindsGolden pins what every job kind serves: a fixed spec must
// reproduce a fixed SHA-256 over its canonical result (wall-clock fields
// zeroed), its sample stream (job IDs blanked) and the sweeps it added to
// sweeps_run. It covers single chains, batches on every route (the
// lane-parallel adapter, the lane-packed engine on one shard and on a 2x2
// pod grid) and ladders,
// with burn-ins and sample intervals that do not divide the run, so a change
// to the job runner that moves any served byte fails here by name.
func TestJobKindsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string
	}{
		{"chain checkerboard", JobSpec{Backend: "checkerboard", Rows: 16, Cols: 24, Temperature: 2.3,
			Sweeps: 37, BurnIn: 5, Seed: 7, SampleInterval: 4}, "2f22ac198ddd4133"},
		{"chain multispin", JobSpec{Backend: "multispin", Rows: 16, Cols: 128, Temperature: 2.1,
			Sweeps: 300, BurnIn: 270, Seed: 8, SampleInterval: 7, Hot: true}, "68e77c6f7d017cdf"},
		{"chain sharded 2x2", JobSpec{Backend: "sharded", Rows: 16, Cols: 128, GridR: 2, GridC: 2,
			Temperature: 2.4, Sweeps: 30, BurnIn: 3, Seed: 9, SampleInterval: 5}, "c0ee88e6a07152c7"},
		{"batch multispin adapter, 3 lanes", JobSpec{Backend: "multispin", Rows: 8, Cols: 64, Temperature: 2.4,
			Sweeps: 20, BurnIn: 3, Seed: 10, SampleInterval: 3, Replicas: 3}, "33d8890673b31a5f"},
		{"batch multispin packed, 64 lanes", JobSpec{Backend: "multispin", Rows: 8, Cols: 64, Temperature: 2.2,
			Sweeps: 12, BurnIn: 2, Seed: 15, SampleInterval: 5, Replicas: 64}, "2568dec74c6af1ba"},
		{"batch checkerboard adapter, 2 lanes", JobSpec{Backend: "checkerboard", Rows: 12, Temperature: 2.2,
			Sweeps: 15, BurnIn: 2, Seed: 11, SampleInterval: 2, Replicas: 2, Workers: 1}, "6730ce6ef7210908"},
		{"batch sharded 2x2, 64 lanes", JobSpec{Backend: "sharded", Rows: 16, Cols: 128, GridR: 2, GridC: 2,
			Temperature: 2.3, Sweeps: 9, BurnIn: 1, Seed: 12, SampleInterval: 4, Replicas: 64}, "ec5c6e8a26662cb6"},
		{"ladder checkerboard", JobSpec{Backend: "checkerboard", Rows: 8, Sweeps: 23, BurnIn: 7, Seed: 13,
			Temperatures: []float64{2.0, 2.3, 2.7}, SwapInterval: 5}, "49633e64fbebd0f4"},
		{"ladder multispin", JobSpec{Backend: "multispin", Rows: 8, Cols: 64, Sweeps: 40, BurnIn: 10, Seed: 14,
			Temperatures: []float64{1.9, 2.2, 2.5, 2.9}, SwapInterval: 4}, "b601a9fb5b5c72b2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := jobKindHash(t, tc.spec); got != tc.want {
				t.Fatalf("served bytes hash to %s, pinned %s", got, tc.want)
			}
		})
	}
}

// jobKindHash runs one spec on a fresh one-worker server and hashes what it
// served: the canonical result, every sample line and the sweeps_run delta.
func jobKindHash(t *testing.T, spec JobSpec) string {
	t.Helper()
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, j)
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("job did not complete: %+v", st)
	}
	h := sha256.New()
	r := *st.Result
	r.ElapsedSec, r.FlipsPerNs = 0, 0
	enc := json.NewEncoder(h)
	if err := enc.Encode(r); err != nil {
		t.Fatal(err)
	}
	samples, _, _, _ := j.watch()
	for _, sm := range samples {
		sm.Job = ""
		if err := enc.Encode(sm); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(h, "sweeps_run %d\n", srv.Stats().SweepsRun)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
