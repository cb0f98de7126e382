package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tpuising/internal/device/metrics"
	"tpuising/internal/ising/backend"
	"tpuising/internal/ising/tpu"
	"tpuising/internal/perf"
	"tpuising/internal/service"
	"tpuising/internal/service/encode"
	"tpuising/internal/sweep"
	"tpuising/internal/tensor"
)

func TestParseSize(t *testing.T) {
	if r, c, err := parseSize("256"); err != nil || r != 256 || c != 256 {
		t.Fatalf("parseSize(256) = %d,%d,%v", r, c, err)
	}
	if r, c, err := parseSize("128x64"); err != nil || r != 128 || c != 64 {
		t.Fatalf("parseSize(128x64) = %d,%d,%v", r, c, err)
	}
	for _, bad := range []string{"", "abc", "12xq"} {
		if _, _, err := parseSize(bad); err == nil {
			t.Fatalf("parseSize(%q) should fail", bad)
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]struct {
		alg  tpu.Algorithm
		perf perf.Algorithm
	}{
		"optim": {tpu.AlgOptim, perf.AlgOptim},
		"2":     {tpu.AlgOptim, perf.AlgOptim},
		"naive": {tpu.AlgNaive, perf.AlgNaive},
		"conv":  {tpu.AlgConv, perf.AlgConv},
	}
	for in, want := range cases {
		alg, pa, err := parseAlgorithm(in)
		if err != nil || alg != want.alg || pa != want.perf {
			t.Fatalf("parseAlgorithm(%q) = %v,%v,%v", in, alg, pa, err)
		}
	}
	if _, _, err := parseAlgorithm("quantum"); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
}

func TestParseDTypeAndPod(t *testing.T) {
	if d, err := parseDType("bf16"); err != nil || d != tensor.BFloat16 {
		t.Fatalf("parseDType(bf16) = %v,%v", d, err)
	}
	if d, err := parseDType("float32"); err != nil || d != tensor.Float32 {
		t.Fatalf("parseDType(float32) = %v,%v", d, err)
	}
	if _, err := parseDType("fp8"); err == nil {
		t.Fatal("unknown dtype should fail")
	}
	if x, y, err := parsePod(""); err != nil || x != 1 || y != 1 {
		t.Fatalf("parsePod('') = %d,%d,%v", x, y, err)
	}
	if x, y, err := parsePod("4x2"); err != nil || x != 4 || y != 2 {
		t.Fatalf("parsePod(4x2) = %d,%d,%v", x, y, err)
	}
	for _, bad := range []string{"4", "0x2", "ax2"} {
		if _, _, err := parsePod(bad); err == nil {
			t.Fatalf("parsePod(%q) should fail", bad)
		}
	}
}

func TestParseShards(t *testing.T) {
	if r, c, err := parseShards(""); err != nil || r != 1 || c != 1 {
		t.Fatalf("parseShards('') = %d,%d,%v", r, c, err)
	}
	if r, c, err := parseShards("2x4"); err != nil || r != 2 || c != 4 {
		t.Fatalf("parseShards(2x4) = %d,%d,%v", r, c, err)
	}
	for _, bad := range []string{"2", "0x2", "2x0", "ax2", "-1x2"} {
		if _, _, err := parseShards(bad); err == nil {
			t.Fatalf("parseShards(%q) should fail", bad)
		}
	}
}

func TestParseTemper(t *testing.T) {
	if n, lo, hi, err := parseTemper("8"); err != nil || n != 8 || lo != 0 || hi != 0 {
		t.Fatalf("parseTemper(8) = %d,%g,%g,%v (no window should defer to the default)", n, lo, hi, err)
	}
	if n, lo, hi, err := parseTemper("4:2.0,2.6"); err != nil || n != 4 || lo != 2.0 || hi != 2.6 {
		t.Fatalf("parseTemper(4:2.0,2.6) = %d,%g,%g,%v", n, lo, hi, err)
	}
	for _, bad := range []string{"", "1", "x", "4:2.6,2.0", "4:2.0", "4:-1,2.0", "4:0,2.0"} {
		if _, _, _, err := parseTemper(bad); err == nil {
			t.Errorf("parseTemper(%q) should fail", bad)
		}
	}
}

// TestTemperOutputDeterministicAcrossWorkers is the end-to-end acceptance
// check: the temper-mode report contains no wall-clock numbers, so the full
// stdout must be byte-identical for -workers 1 and -workers 8.
func TestTemperOutputDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "isingtpu")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	build.Env = append(os.Environ(), "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building isingtpu: %v\n%s", err, out)
	}
	run := func(workers string) string {
		out, err := exec.Command(bin, "-temper", "8", "-backend", "multispin",
			"-size", "64", "-sweeps", "100", "-workers", workers, "-profile").CombinedOutput()
		if err != nil {
			t.Fatalf("isingtpu -temper (workers=%s): %v\n%s", workers, err, out)
		}
		return string(out)
	}
	w1, w8 := run("1"), run("8")
	if w1 != w8 {
		t.Fatalf("temper output differs between -workers 1 and -workers 8:\n--- w1\n%s\n--- w8\n%s", w1, w8)
	}
	for _, want := range []string{"parallel tempering", "swap acc", "round trips", "U4", "swap traffic"} {
		if !strings.Contains(w1, want) {
			t.Errorf("temper output lacks %q:\n%s", want, w1)
		}
	}
}

// TestJSONOutputSharesServiceEncoding builds the CLI and checks that -json
// emits one internal/service/encode.Result line equal, field for field, to
// what the simulation service serves for the same spec sampled once at its
// last sweep — the CLI and isingd run one job runner (service.Run). Only the
// wall-clock fields are zeroed before comparing.
func TestJSONOutputSharesServiceEncoding(t *testing.T) {
	bin := buildCLI(t)

	// A chain, with a burn-in.
	r := cliResult(t, bin, "-json", "-backend", "multispin",
		"-size", "16x64", "-temp", "2.4", "-sweeps", "50", "-burnin", "10", "-seed", "3")
	if r.Backend != "multispin" || r.Rows != 16 || r.Cols != 64 || r.Seed != 3 ||
		r.Sweeps != 50 || r.BurnIn != 10 || r.Step != 120 || r.Samples != 1 {
		t.Fatalf("-json result: %+v", r)
	}
	sameResult(t, "chain", r, daemonResult(t, service.JobSpec{Backend: "multispin", Rows: 16, Cols: 64,
		Temperature: 2.4, Sweeps: 50, BurnIn: 10, Seed: 3}))

	// -json also covers replica exchange, with the per-temperature rows; the
	// burn-in of 15 rounds up to two whole swap rounds of 10.
	tr := cliResult(t, bin, "-json", "-temper", "4:2.0,2.6", "-backend", "checkerboard",
		"-size", "16", "-sweeps", "40", "-burnin", "15", "-seed", "2")
	if len(tr.Replicas) != 4 || tr.Backend != "checkerboard" {
		t.Fatalf("-json -temper result: %+v", tr)
	}
	if tr.ElapsedSec != 0 || tr.FlipsPerNs != 0 {
		t.Fatalf("-json -temper carries wall-clock fields: %+v", tr)
	}
	sameResult(t, "ladder", tr, daemonResult(t, service.JobSpec{Backend: "checkerboard", Rows: 16,
		Sweeps: 40, BurnIn: 15, Seed: 2, Temperatures: sweep.TemperatureGrid(2.0, 2.6, 4), SwapInterval: 10}))

	// -json refuses the prose-only modes.
	if out, err := exec.Command(bin, "-json", "-profile", "-backend", "multispin", "-size", "16x64", "-sweeps", "1").CombinedOutput(); err == nil {
		t.Fatalf("-json -profile should fail:\n%s", out)
	}
	if out, err := exec.Command(bin, "-json", "-estimate", "-size", "256").CombinedOutput(); err == nil {
		t.Fatalf("-json -estimate should fail:\n%s", out)
	}
}

// buildCLI builds isingtpu into a test temp directory, skipping the test in
// -short mode or without a go toolchain.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "isingtpu")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	build.Env = append(os.Environ(), "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building isingtpu: %v\n%s", err, out)
	}
	return bin
}

// cliResult runs the CLI and decodes its one -json line.
func cliResult(t *testing.T, bin string, args ...string) encode.Result {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("isingtpu %v: %v\n%s", args, err, out)
	}
	var r encode.Result
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatalf("isingtpu %v output is not one JSON line: %v\n%s", args, err, out)
	}
	return r
}

// daemonResult runs spec on an in-process service, sampled once at its last
// sweep as the CLI samples, and returns the served result.
func daemonResult(t *testing.T, spec service.JobSpec) encode.Result {
	t.Helper()
	spec.SampleInterval = spec.Sweeps
	srv, _ := service.New(service.Config{Workers: 1})
	defer srv.Close()
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	r, err := j.Result()
	if err != nil || r == nil {
		t.Fatalf("service job %+v: %v", spec, err)
	}
	return *r
}

// sameResult fails unless the CLI's and the daemon's results encode to the
// same bytes once their wall-clock fields are zeroed.
func sameResult(t *testing.T, kind string, cli, daemon encode.Result) {
	t.Helper()
	cli.ElapsedSec, cli.FlipsPerNs = 0, 0
	daemon.ElapsedSec, daemon.FlipsPerNs = 0, 0
	cb, err := json.Marshal(cli)
	if err != nil {
		t.Fatal(err)
	}
	db, err := json.Marshal(daemon)
	if err != nil {
		t.Fatal(err)
	}
	if string(cb) != string(db) {
		t.Fatalf("%s: CLI and service results differ:\ncli    %s\nservice %s", kind, cb, db)
	}
}

// TestBackendErrorListsNames: a bad -backend value must name every valid
// engine from the factory registry, not fail bare.
func TestBackendErrorListsNames(t *testing.T) {
	_, err := backend.Canonical("warp-drive")
	if err == nil {
		t.Fatal("unknown backend should fail")
	}
	for _, name := range backend.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list backend %q", err, name)
		}
	}
}

func TestDefaultTile(t *testing.T) {
	if got := backend.DefaultTile(256, 256); got != 128 {
		t.Fatalf("DefaultTile(256,256) = %d", got)
	}
	if got := backend.DefaultTile(64, 96); got != 16 {
		t.Fatalf("DefaultTile(64,96) = %d", got)
	}
	if got := backend.DefaultTile(10, 10); got != 2 {
		t.Fatalf("DefaultTile(10,10) = %d", got)
	}
}

func TestPerSweepCounts(t *testing.T) {
	c := metrics.Counts{MXUMacs: 100, VPUOps: 50, FormatBytes: 40, HBMBytes: 30, CommBytes: 20, CommEvents: 10, CommHops: 8, Ops: 6}
	half := perSweepCounts(c, 2)
	if half.MXUMacs != 50 || half.Ops != 3 || half.CommEvents != 5 {
		t.Fatalf("perSweepCounts halved wrong: %+v", half)
	}
	if perSweepCounts(c, 1) != c || perSweepCounts(c, 0) != c {
		t.Fatal("sweeps <= 1 should return the counts unchanged")
	}
}

func TestHelpers(t *testing.T) {
	if abs(-2) != 2 || abs(3) != 3 {
		t.Fatal("abs")
	}
	if pct(1, 4) != 25 || pct(1, 0) != 0 {
		t.Fatal("pct")
	}
	if dtName(tensor.BFloat16) != "bfloat16" || dtName(tensor.Float32) != "float32" {
		t.Fatal("dtName")
	}
}

// TestReplicasModeSharesServiceEncoding builds the CLI and checks the
// batched-ensemble mode end to end: -replicas B -json emits one
// encode.Result with B per-lane rows, equal field for field (wall clock
// zeroed) to what a service batch job of the same spec serves, and the flag
// conflicts and invalid values are refused with errors naming the flag.
func TestReplicasModeSharesServiceEncoding(t *testing.T) {
	bin := buildCLI(t)

	r := cliResult(t, bin, "-json", "-replicas", "3", "-backend", "multispin",
		"-size", "16x64", "-temp", "2.4", "-sweeps", "30", "-burnin", "4", "-seed", "7")
	// The result names the selected registry backend, exactly like the
	// service's batch jobs — the lane-packed execution engine is invisible.
	if len(r.Lanes) != 3 || r.Backend != "multispin" || r.Step != 68 {
		t.Fatalf("-replicas result: %+v", r)
	}
	sameResult(t, "batch", r, daemonResult(t, service.JobSpec{Backend: "multispin", Rows: 16, Cols: 64,
		Temperature: 2.4, Sweeps: 30, BurnIn: 4, Seed: 7, Replicas: 3}))

	// The batched temper ladder also keeps the registry backend name; the
	// burn-in of 7 rounds up to three whole swap rounds of 3.
	tr := cliResult(t, bin, "-json", "-temper", "4:1.9,2.6", "-backend", "multispin",
		"-size", "16x64", "-sweeps", "20", "-burnin", "7", "-swapint", "3", "-seed", "2")
	if tr.Backend != "multispin" || len(tr.Replicas) != 4 {
		t.Fatalf("-json -temper multispin result names backend %q with %d replicas", tr.Backend, len(tr.Replicas))
	}
	sameResult(t, "ladder", tr, daemonResult(t, service.JobSpec{Backend: "multispin", Rows: 16, Cols: 64,
		Sweeps: 20, BurnIn: 7, Seed: 2, Temperatures: sweep.TemperatureGrid(1.9, 2.6, 4), SwapInterval: 3}))

	// Conflicting and invalid flag combinations are refused, naming the flag.
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-replicas", []string{"-replicas", "4", "-temper", "4", "-backend", "multispin", "-size", "16x64", "-sweeps", "1"}},
		{"-replicas", []string{"-replicas", "0", "-size", "16x64", "-sweeps", "1"}},
		{"-replicas", []string{"-replicas", "2", "-estimate", "-size", "256"}},
		{"-swapint", []string{"-temper", "3", "-backend", "multispin", "-size", "16x64", "-swapint", "0"}},
		{"-swapint", []string{"-temper", "3", "-backend", "multispin", "-size", "16x64", "-swapint", "-2"}},
		{"-sweeps", []string{"-backend", "multispin", "-size", "16x64", "-sweeps", "-5", "-burnin", "-3"}},
		{"-burnin", []string{"-backend", "multispin", "-size", "16x64", "-burnin", "-3"}},
		{"-sweeps", []string{"-replicas", "2", "-backend", "multispin", "-size", "16x64", "-sweeps", "-1"}},
		{"-burnin", []string{"-temper", "3", "-backend", "checkerboard", "-size", "16", "-burnin", "-1"}},
		{"-sweeps", []string{"-size", "16", "-sweeps", "-1"}},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.flag) {
			t.Errorf("isingtpu %v should fail naming %s, got err=%v:\n%s", tc.args, tc.flag, err, out)
		}
	}
}
