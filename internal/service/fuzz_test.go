package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"tpuising/internal/ising"
	"tpuising/internal/ising/backend"
)

// fuzzCheckpointBytes builds a genuine v2 checkpoint image (real engine
// snapshot, valid checksum header) for the fuzz seed corpus. With replicas
// > 1 the same chain snapshot is filed under a batch spec, a file no daemon
// writes and the parser must refuse.
func fuzzCheckpointBytes(t interface{ Fatal(...any) }, replicas int) []byte {
	spec, err := (JobSpec{Backend: "checkerboard", Rows: 8, Sweeps: 40, Temperature: 2.5, Seed: 3}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := backend.New(spec.Backend, backendConfig(spec, spec.Temperature, spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.(ising.Snapshotter).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	spec.Replicas = max(replicas, 1)
	blob, err := encodeCheckpoint(&checkpointState{
		Job: "job-000001", Spec: spec, DoneSweeps: 0,
		Snapshot: ising.EncodeSnapshot(snap), AdmittedAt: 1_700_000_000_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// FuzzLoadCheckpoint holds the checkpoint parser — the code that fronts
// every daemon restart — to "error or valid, never panic" on arbitrary file
// bytes: v2 envelopes with mangled headers, torn payloads, flipped bits,
// legacy v1 JSON, and garbage. A successful parse must satisfy the
// invariants the scheduler relies on.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, seed := range fuzzLoadCheckpointSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := parseCheckpoint(data, "job-000001.ckpt")
		if err != nil {
			return
		}
		if cs.Job != "job-000001" {
			t.Fatalf("parser accepted a checkpoint naming job %q from a file named job-000001.ckpt", cs.Job)
		}
		if cs.DoneSweeps < 0 || cs.DoneSweeps > cs.Spec.totalSweeps() {
			t.Fatalf("parser accepted out-of-range done_sweeps %d", cs.DoneSweeps)
		}
		if cs.DoneSweeps != 0 && len(cs.Snapshot) == 0 {
			t.Fatal("parser accepted progress without a snapshot")
		}
		if len(cs.Snapshot) > 0 {
			if cs.Spec.Replicas > 1 || len(cs.Spec.Temperatures) > 0 {
				t.Fatal("parser accepted an engine snapshot for a batch or ladder spec")
			}
			if _, err := ising.DecodeSnapshot(cs.Snapshot); err != nil {
				t.Fatalf("parser accepted an undecodable snapshot: %v", err)
			}
		}
		if _, err := cs.Spec.Normalize(); err != nil {
			t.Fatalf("parser accepted a spec that fails normalization: %v", err)
		}
	})
}

// fuzzLoadCheckpointSeeds is the committed seed corpus for FuzzLoadCheckpoint
// (mirrored into testdata/fuzz by TestWriteFuzzCorpus): a genuine v2 file,
// its torn and doubled variants, a legacy v1 intent record, headers forged
// to claim absurd or unparseable lengths, and a well-formed file carrying a
// snapshot for a batch spec.
func fuzzLoadCheckpointSeeds(t interface{ Fatal(...any) }) [][]byte {
	valid := fuzzCheckpointBytes(t, 1)
	return [][]byte{
		valid,
		valid[:len(valid)/2],
		append(append([]byte(nil), valid...), valid...),
		[]byte(`{"version":1,"job":"job-000001","spec":{"backend":"checkerboard","rows":4,"sweeps":2}}`),
		[]byte("ISCKPT2 crc32c=deadbeef len=999999999\n{}"),
		[]byte("ISCKPT2 crc32c=zz len=-1\n{}"),
		[]byte("ISCKPT2 "),
		[]byte("{"),
		fuzzCheckpointBytes(t, 4),
	}
}

// fuzzJobSpecSeeds is the committed seed corpus for FuzzJobSpecNormalize:
// one valid spec per backend family plus shapes that probe each rejection
// branch of Normalize.
func fuzzJobSpecSeeds() [][]byte {
	return [][]byte{
		[]byte(`{"backend":"checkerboard","rows":8,"sweeps":4}`),
		[]byte(`{"backend":"multispin","rows":16,"cols":64,"sweeps":10,"replicas":4,"workers":1}`),
		[]byte(`{"backend":"checkerboard","rows":8,"sweeps":4,"temperatures":[2.0,2.3,2.6],"swap_interval":5}`),
		[]byte(`{"backend":"checkerboard","rows":-1,"sweeps":0,"priority":99}`),
		[]byte(`{"backend":"","rows":1e9,"sweeps":1,"temperature":-3}`),
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpora under
// testdata/fuzz when run with WRITE_FUZZ_CORPUS=1; otherwise it verifies the
// committed files are exactly the in-code seeds, so the two can never drift.
func TestWriteFuzzCorpus(t *testing.T) {
	corpora := map[string][][]byte{
		"FuzzLoadCheckpoint":   fuzzLoadCheckpointSeeds(t),
		"FuzzJobSpecNormalize": fuzzJobSpecSeeds(),
	}
	for name, seeds := range corpora {
		checkFuzzCorpus(t, filepath.Join("testdata", "fuzz", name), seeds)
	}
}

// checkFuzzCorpus writes (under WRITE_FUZZ_CORPUS=1) or verifies one corpus
// directory in the `go test fuzz v1` file format.
func checkFuzzCorpus(t *testing.T, dir string, seeds [][]byte) {
	t.Helper()
	write := os.Getenv("WRITE_FUZZ_CORPUS") != ""
	if write {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range seeds {
		path := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		if write {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing committed corpus entry (regenerate with WRITE_FUZZ_CORPUS=1): %v", err)
		}
		if string(got) != want {
			t.Errorf("%s drifted from the in-code seed (regenerate with WRITE_FUZZ_CORPUS=1)", path)
		}
	}
}

// FuzzJobSpecNormalize holds spec validation — the public POST /v1/jobs
// parsing surface — to "error or valid, never panic" on arbitrary JSON, and
// pins normalization as a fixed point: a spec that passes must pass again
// unchanged, with a stable cache key (otherwise resubmitting a normalized
// spec could miss its own cache entry).
func FuzzJobSpecNormalize(f *testing.F) {
	for _, seed := range fuzzJobSpecSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		norm, err := spec.Normalize()
		if err != nil {
			return
		}
		key := norm.CacheKey()
		again, err := norm.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v failed re-normalization: %v", norm, err)
		}
		if again.CacheKey() != key {
			t.Fatalf("normalization is not a fixed point: key %q became %q", key, again.CacheKey())
		}
		if norm.Sweeps <= 0 || norm.Rows <= 0 || norm.Cols <= 0 || norm.SampleInterval <= 0 {
			t.Fatalf("normalization let an invalid shape through: %+v", norm)
		}
	})
}
