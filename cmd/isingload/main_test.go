package main

import (
	"os"
	"path/filepath"
	"testing"

	"tpuising/internal/load"
)

// TestRunSelfHostedSmoke runs the whole CLI path end to end: boot the
// in-process daemon, drive a tiny scenario, check the default thresholds,
// and write a snapshot — then read the snapshot back and make sure it is
// the run we just made.
func TestRunSelfHostedSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "snapshot.json")
	err := run([]string{
		"-duration", "800ms",
		"-submitters", "2",
		"-subscribers", "2",
		"-backend", "checkerboard",
		"-rows", "16",
		"-sweeps", "40",
		"-interval", "10",
		"-workers", "2",
		"-out", out,
	}, os.Stdout)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	snap, err := load.ReadSnapshot(out)
	if err != nil {
		t.Fatalf("reading snapshot: %v", err)
	}
	if !snap.Passed || snap.Service == nil {
		t.Fatalf("snapshot: passed=%v service=%v", snap.Passed, snap.Service)
	}
	if snap.Service.JobsDone == 0 || snap.Service.Requests == 0 {
		t.Fatalf("snapshot shows no traffic: %+v", snap.Service)
	}
	if len(snap.Checks) == 0 {
		t.Fatal("snapshot carries no threshold checks")
	}
	if snap.GoVersion == "" || snap.GOMAXPROCS == 0 {
		t.Fatalf("snapshot missing runtime info: %+v", snap)
	}
}

// TestRunFailedThresholdIsAnError asserts the CLI's k6-style exit contract:
// an impossible threshold makes run return an errThresholds naming it.
func TestRunFailedThresholdIsAnError(t *testing.T) {
	err := run([]string{
		"-duration", "300ms",
		"-submitters", "1",
		"-subscribers", "0",
		"-backend", "checkerboard",
		"-rows", "16",
		"-sweeps", "20",
		"-workers", "1",
		"-thresholds", "requests>=1,jobs_done>=1000000",
	}, os.Stdout)
	if err == nil {
		t.Fatal("run passed an impossible threshold")
	}
	te, ok := err.(errThresholds)
	if !ok {
		t.Fatalf("error is %T (%v), want errThresholds", err, err)
	}
	if len(te.failed) != 1 || te.failed[0].Threshold.Metric != "jobs_done" {
		t.Fatalf("failed checks: %+v", te.failed)
	}
}
