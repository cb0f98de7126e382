package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tpuising/internal/ising"
	"tpuising/internal/stats"
)

// checkpointState is one checkpoint file: everything a fresh daemon needs to
// resume the job bit-identically — the job identity, how far it got, the
// running observable accumulators and the engine snapshot. It is JSON with
// the snapshot embedded in ising's binary snapshot codec (base64 under
// encoding/json); the accumulator floats round-trip exactly, and the
// snapshot carries the spins, RNG key and step counter, so the resumed chain
// and its emission schedule continue exactly where they stopped.
//
// A checkpoint with an empty Snapshot and DoneSweeps 0 is a durable intent
// record: Submit writes one for every accepted job before acknowledging it,
// so an accepted job that never reached (or cannot reach) an engine snapshot
// — tempering and batched jobs have none — still survives a daemon restart
// by rerunning from sweep zero, which the deterministic engines turn into
// the byte-identical result.
type checkpointState struct {
	Version    int                    `json:"version"`
	Job        string                 `json:"job"`
	Spec       JobSpec                `json:"spec"`
	DoneSweeps int                    `json:"done_sweeps"`
	AbsM       stats.AccumulatorState `json:"abs_m"`
	Energy     stats.AccumulatorState `json:"energy"`
	Snapshot   []byte                 `json:"snapshot"`
	// AdmittedAt is the job's admission wall-clock time in Unix nanoseconds
	// (0 in v1 files, which predate it). A restarted daemon folds it into its
	// monotonic clock floor, so a host whose wall clock went backwards across
	// the restart cannot compute negative job ages or revive expired state.
	AdmittedAt int64 `json:"admitted_at_unix_nano,omitempty"`
}

// Checkpoint codec versions. Version 2 wraps the JSON payload in a
// checksummed header (see encodeCheckpoint); version 1 files — bare JSON,
// written by older daemons — remain readable and are upgraded to v2 the next
// time the job checkpoints.
const (
	checkpointVersion   = 2
	checkpointVersionV1 = 1
)

// checkpointHeaderPrefix opens every v2 checkpoint file. The full header is
// one line, `ISCKPT2 crc32c=<hex> len=<payload bytes>\n`, followed by the
// JSON payload: the length detects torn (truncated or doubled) files, the
// CRC-32C detects bit rot, and a v1 reader that expects bare JSON fails
// loudly instead of misparsing.
const checkpointHeaderPrefix = "ISCKPT2 "

// checkpointExt is the checkpoint file suffix; files are named <jobID>.ckpt.
const checkpointExt = ".ckpt"

// checkpointTmpExt suffixes the atomic-write staging files (<jobID>.ckpt.tmp).
// A crash between write and rename strands one; the startup scan sweeps them.
const checkpointTmpExt = ".tmp"

// quarantineDir is the subdirectory of the checkpoint directory that the
// startup scan moves corrupt checkpoint files into. Quarantined files are
// evidence — never deleted by the service — and the subdirectory is excluded
// from later scans (CheckpointFS.ReadDir lists plain files only).
const quarantineDir = "quarantine"

// crc32c is the Castagnoli polynomial table for the v2 whole-file checksum.
var crc32c = crc32.MakeTable(crc32.Castagnoli)

// checkpointPath returns the job's checkpoint file path.
func (s *Server) checkpointPath(jobID string) string {
	return filepath.Join(s.cfg.CheckpointDir, jobID+checkpointExt)
}

// writeCheckpoint captures the engine state and atomically replaces the
// job's checkpoint file (write to a temp file, then rename), so a crash
// mid-write leaves the previous checkpoint intact.
func (s *Server) writeCheckpoint(j *Job, snapper ising.Snapshotter, done int, absM, energy stats.AccumulatorState) error {
	snap, err := snapper.Snapshot()
	if err != nil {
		return err
	}
	if err := s.writeCheckpointState(&checkpointState{
		Job: j.id, Spec: j.spec,
		DoneSweeps: done, AbsM: absM, Energy: energy,
		Snapshot:   ising.EncodeSnapshot(snap),
		AdmittedAt: j.admittedAt.UnixNano(),
	}); err != nil {
		return err
	}
	j.addEvent(EventCheckpointed, done)
	return nil
}

// writeSpecCheckpoint records a just-accepted job's spec durably — a
// checkpoint with no snapshot and zero progress. It never overwrites a real
// snapshot: only Submit calls it, before the job has run.
func (s *Server) writeSpecCheckpoint(j *Job) error {
	return s.writeCheckpointState(&checkpointState{
		Job: j.id, Spec: j.spec, AdmittedAt: j.admittedAt.UnixNano(),
	})
}

// encodeCheckpoint serializes a checkpoint in the v2 layout: a one-line
// checksummed header followed by the JSON payload.
func encodeCheckpoint(cs *checkpointState) ([]byte, error) {
	cs.Version = checkpointVersion
	payload, err := json.Marshal(cs)
	if err != nil {
		return nil, err
	}
	header := fmt.Sprintf("%scrc32c=%08x len=%d\n",
		checkpointHeaderPrefix, crc32.Checksum(payload, crc32c), len(payload))
	return append([]byte(header), payload...), nil
}

// writeCheckpointState serializes a checkpoint and atomically replaces the
// job's file through the configured CheckpointFS: write a temp file (synced),
// rename over the target, sync the directory. A failure anywhere removes the
// temp file — a failed write must not leave droppings that a later scan
// would trip on — and moves the checkpoint_failures counter, so a full disk
// is loud in the stats even before the job fails. (A kill -9 mid-write still
// strands the temp file; the next daemon's startup scan sweeps it.)
func (s *Server) writeCheckpointState(cs *checkpointState) (err error) {
	start := s.now()
	defer func() {
		if err != nil {
			s.checkpointFailures.Add(1)
			s.logger.Error("checkpoint write failed", "job", cs.Job, "error", err)
		}
	}()
	blob, err := encodeCheckpoint(cs)
	if err != nil {
		return err
	}
	fs := s.cfg.CheckpointFS
	path := s.checkpointPath(cs.Job)
	tmp := path + checkpointTmpExt
	if err := fs.WriteFile(tmp, blob); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	// Best-effort directory sync so the rename itself is durable.
	_ = fs.SyncDir(s.cfg.CheckpointDir)
	s.checkpointsWritten.Add(1)
	s.checkpointBytes.Add(int64(len(blob)))
	s.checkpointWriteH.Observe(s.now().Sub(start))
	return nil
}

// removeCheckpoint deletes the job's checkpoint file (job completed, failed
// or was canceled by a client).
func (s *Server) removeCheckpoint(j *Job) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	_ = s.cfg.CheckpointFS.Remove(s.checkpointPath(j.id))
}

// loadCheckpoint reads one checkpoint file through the configured
// CheckpointFS — the injectable read path the crash suite targets — and
// parses it.
func (s *Server) loadCheckpoint(path string) (*checkpointState, error) {
	blob, err := s.cfg.CheckpointFS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseCheckpoint(blob, path)
}

// parseCheckpoint parses and validates one checkpoint file image. It accepts
// both codec versions — a v2 checksummed envelope and a bare-JSON v1 file —
// and returns an error (never panics, however mangled the bytes: the
// FuzzLoadCheckpoint target holds it to that) for anything torn, corrupt or
// inconsistent. path is used for error text and the job-name cross-check.
func parseCheckpoint(blob []byte, path string) (*checkpointState, error) {
	payload := blob
	wantVersion := checkpointVersionV1
	if bytes.HasPrefix(blob, []byte(checkpointHeaderPrefix)) {
		nl := bytes.IndexByte(blob, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("%s: checkpoint header is unterminated (torn write)", path)
		}
		var sum uint32
		var n int
		if _, err := fmt.Sscanf(string(blob[len(checkpointHeaderPrefix):nl]), "crc32c=%x len=%d", &sum, &n); err != nil {
			return nil, fmt.Errorf("%s: malformed checkpoint header %q", path, blob[:nl])
		}
		payload = blob[nl+1:]
		if n < 0 || len(payload) != n {
			return nil, fmt.Errorf("%s: checkpoint payload is %d bytes, header says %d (torn write)", path, len(payload), n)
		}
		if got := crc32.Checksum(payload, crc32c); got != sum {
			return nil, fmt.Errorf("%s: checkpoint checksum %08x, header says %08x (corrupt)", path, got, sum)
		}
		wantVersion = checkpointVersion
	}
	var cs checkpointState
	if err := json.Unmarshal(payload, &cs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if cs.Version != wantVersion {
		return nil, fmt.Errorf("%s: checkpoint version %d, want %d", path, cs.Version, wantVersion)
	}
	if cs.Job == "" || !strings.HasPrefix(filepath.Base(path), cs.Job+checkpointExt) {
		return nil, fmt.Errorf("%s: checkpoint names job %q", path, cs.Job)
	}
	spec, err := cs.Spec.Normalize()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	cs.Spec = spec
	if cs.AdmittedAt < 0 {
		return nil, fmt.Errorf("%s: negative admission time %d", path, cs.AdmittedAt)
	}
	if cs.DoneSweeps < 0 || cs.DoneSweeps > spec.totalSweeps() {
		return nil, fmt.Errorf("%s: done_sweeps %d out of range", path, cs.DoneSweeps)
	}
	if len(cs.Snapshot) == 0 {
		// A durable intent record: valid only at zero progress — the job
		// reruns from sweep zero. Progress without a snapshot is rot.
		if cs.DoneSweeps != 0 {
			return nil, fmt.Errorf("%s: done_sweeps %d but no snapshot", path, cs.DoneSweeps)
		}
		return &cs, nil
	}
	if spec.Replicas > 1 || len(spec.Temperatures) > 0 {
		// Only single chains snapshot; no daemon writes one for a batch or
		// a ladder, so resuming it would rerun the job behind a false trace.
		return nil, fmt.Errorf("%s: engine snapshot for a batch or ladder job", path)
	}
	if _, err := ising.DecodeSnapshot(cs.Snapshot); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &cs, nil
}

// scanCheckpoints loads every readable checkpoint in the directory, sorted
// by job ID so resumption order is deterministic. The scan is crash-only
// recovery, so it is also the self-defence pass: stale .tmp droppings from a
// kill mid-write are swept (counted in checkpoint_tmp_swept), and any file
// that is unreadable, torn or checksum-failing is moved — never deleted:
// quarantined files are evidence — into the quarantine/ subdirectory,
// counted in checkpoint_corrupt, with its job registered as lost to
// corruption (Get answers ErrJobCorrupt, HTTP 410). Problems are reported,
// never fatal: a daemon must come back up even if every checkpoint rotted.
func (s *Server) scanCheckpoints() (states []*checkpointState, skipped []error) {
	fs := s.cfg.CheckpointFS
	dir := s.cfg.CheckpointDir
	if err := fs.MkdirAll(dir); err != nil {
		return nil, []error{err}
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, []error{err}
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		if strings.HasSuffix(name, checkpointTmpExt) {
			// An atomic-replace staging file stranded by a crash between
			// write and rename. Its target either holds the previous good
			// checkpoint or never existed; the dropping itself is garbage.
			if err := fs.Remove(path); err != nil {
				skipped = append(skipped, fmt.Errorf("sweeping stale temp file %s: %w", path, err))
				continue
			}
			s.checkpointTmpSwept.Add(1)
			continue
		}
		if !strings.HasSuffix(name, checkpointExt) {
			continue
		}
		cs, err := s.loadCheckpoint(path)
		if err != nil {
			skipped = append(skipped, err)
			s.quarantineCheckpoint(path, name)
			continue
		}
		states = append(states, cs)
	}
	sort.Slice(states, func(i, k int) bool { return states[i].Job < states[k].Job })
	return states, skipped
}

// quarantineCheckpoint moves a corrupt checkpoint file into the quarantine
// subdirectory (preserving it as evidence), counts it, and registers its job
// — named by the file, since the contents are untrustworthy — as lost to
// corruption so clients polling the ID get the corruption taxonomy instead
// of a bare not-found.
func (s *Server) quarantineCheckpoint(path, name string) {
	fs := s.cfg.CheckpointFS
	qdir := filepath.Join(s.cfg.CheckpointDir, quarantineDir)
	if err := fs.MkdirAll(qdir); err == nil {
		_ = fs.Rename(path, filepath.Join(qdir, name))
		_ = fs.SyncDir(s.cfg.CheckpointDir)
	}
	s.checkpointCorrupt.Add(1)
	s.logger.Warn("checkpoint quarantined", "file", name)
	jobID := strings.TrimSuffix(name, checkpointExt)
	s.mu.Lock()
	s.corruptJobs[jobID] = true
	// Never reissue a corrupt job's ID: a fresh job under it would shadow
	// the corruption verdict.
	s.advanceIDLocked(jobID)
	s.mu.Unlock()
}

// admittedAtOrNow converts a persisted admission timestamp back to a
// time.Time, falling back to now for v1 checkpoints that predate the field.
func admittedAtOrNow(unixNano int64, now func() time.Time) time.Time {
	if unixNano > 0 {
		return time.Unix(0, unixNano)
	}
	return now()
}
