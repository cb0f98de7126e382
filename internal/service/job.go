package service

import (
	"context"
	"sync"
	"time"

	"tpuising/internal/service/encode"
)

// JobState is the lifecycle state of a job.
type JobState string

const (
	// StateQueued means the job waits for a worker (or, after a daemon
	// shutdown, for the next daemon to resume it from its checkpoint).
	StateQueued JobState = "queued"
	// StateRunning means a worker is sweeping the job's chain.
	StateRunning JobState = "running"
	// StateDone means the job finished and its Result is available.
	StateDone JobState = "done"
	// StateFailed means the job stopped with an error.
	StateFailed JobState = "failed"
	// StateCanceled means the job was canceled by a client.
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// maxSampleHistory is the default bound on the per-job sample history
// (Config.SampleHistory overrides it). Samples beyond it are counted but not
// retained — a stream reports the loss with one final truncation line
// (encode.Sample.Truncated) instead of silently ending short. Jobs that need
// every observation should raise SampleInterval so the run fits the bound.
const maxSampleHistory = 1 << 16

// Job is one scheduled simulation. All exported methods are safe for
// concurrent use.
type Job struct {
	id      string
	spec    JobSpec // normalized
	key     string  // spec.CacheKey()
	history int     // sample-history bound (Config.SampleHistory)

	ctx    context.Context
	cancel context.CancelCauseFunc
	now    func() time.Time // the server's clock, for finishedAt

	// admittedAt is the job's admission wall-clock stamp. It is persisted in
	// every checkpoint and restored on resume, so age accounting survives a
	// restart even when the host's wall clock does not move forward with it.
	// Written at construction/resume only, before the job is visible.
	admittedAt time.Time

	// enqueuedAt stamps when the job (re-)entered the queue — the opening
	// edge of the queue-wait histogram, read by the dequeue. Written at
	// construction, before the job is visible.
	enqueuedAt time.Time

	// resume carries the checkpoint the job restarts from (nil for fresh
	// jobs); it is read once by the worker.
	resume *checkpointState

	// held parks the job in the queue until Submit finishes writing its
	// durable intent record: a job must never run — let alone finish —
	// before the daemon could survive a restart with it. Guarded by the
	// SERVER's mu (it is scheduler state), not j.mu.
	held bool

	mu         sync.Mutex
	state      JobState
	cached     bool
	err        error
	result     *encode.Result
	finishedAt time.Time // terminal-transition timestamp, for Config.JobTTL
	// runStartedAt stamps the StateRunning transition — the opening edge of
	// the run-duration histogram (zero for jobs that never ran).
	runStartedAt time.Time
	sweepsDone   int
	samples      []encode.Sample
	dropped      int // samples beyond the history bound
	// trace is the job's lifecycle timeline (see trace.go), bounded at
	// maxTraceEvents with the overflow counted in traceDropped.
	trace        []TraceEvent
	traceDropped int
	// streamed is closed and replaced only when a stream gains something to
	// write: a sample append or a terminal transition. Progress updates
	// (setSweepsDone) deliberately do NOT touch it — waking every open
	// stream once per sweep with nothing new to send is the wake-storm the
	// service's stream_wakeups counter measures.
	streamed chan struct{}
	done     chan struct{} // closed when the state turns terminal
}

// JobStatus is the JSON status representation of a job (GET /v1/jobs/{id}).
type JobStatus struct {
	ID     string   `json:"id"`
	State  JobState `json:"state"`
	Cached bool     `json:"cached,omitempty"`
	Spec   JobSpec  `json:"spec"`
	// SweepsDone counts completed whole-lattice updates including burn-in
	// (per replica, for tempering jobs); TotalSweeps is the job's end.
	SweepsDone  int `json:"sweeps_done"`
	TotalSweeps int `json:"total_sweeps"`
	// Samples is the number of observations streamed so far.
	Samples int            `json:"samples"`
	Error   string         `json:"error,omitempty"`
	Result  *encode.Result `json:"result,omitempty"`
}

func newJob(id string, spec JobSpec, history int, now func() time.Time) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	if history <= 0 {
		history = maxSampleHistory
	}
	if now == nil {
		now = time.Now
	}
	at := now()
	return &Job{
		id: id, spec: spec, key: spec.CacheKey(), history: history,
		ctx: ctx, cancel: cancel, now: now, admittedAt: at, enqueuedAt: at,
		state:    StateQueued,
		streamed: make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's normalized spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns a snapshot of the job's state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state, Cached: j.cached, Spec: j.spec,
		SweepsDone: j.sweepsDone, TotalSweeps: j.spec.totalSweeps(),
		Samples: len(j.samples) + j.dropped, Result: j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// Result returns the job's result once done (nil, error otherwise).
func (j *Job) Result() (*encode.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// notifyStream wakes every stream watcher; the caller must hold j.mu. Only
// sample appends and terminal transitions call it — those are the only
// events that give a stream something new to write.
func (j *Job) notifyStream() {
	close(j.streamed)
	j.streamed = make(chan struct{})
}

// setState transitions the job, reporting whether the transition happened
// (false once the job is already terminal — callers use this to keep the
// server counters exact when a cancel races a completion). Terminal
// transitions wake stream watchers so open streams end promptly; the caller
// whose terminal transition succeeded then retires the job, which closes
// Done (see Server.retire).
func (j *Job) setState(state JobState, err error) bool {
	return j.setStateThen(state, err, nil)
}

// setStateThen is setState with a terminal hook: when this call moves the
// job to a terminal state, onTerminal (if not nil) runs with the run-start
// stamp under the job lock, before Done closes and before any status read
// can see the new state. Server counters bumped there are therefore visible
// to every client that has seen the job finish.
func (j *Job) setStateThen(state JobState, err error, onTerminal func(runStarted time.Time)) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.state = state
	j.err = err
	if state == StateRunning {
		j.runStartedAt = j.now()
	}
	if ev, ok := stateEvent[state]; ok {
		j.addEventLocked(ev, 0)
	}
	if state.terminal() {
		j.closeLocked(onTerminal)
	}
	return true
}

// finish marks the job done with its result, reporting whether it was still
// live to finish. onTerminal runs as in setStateThen.
func (j *Job) finish(result *encode.Result, cached bool, onTerminal func(runStarted time.Time)) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.state = StateDone
	j.result = result
	j.cached = cached
	j.addEventLocked(EventCompleted, 0)
	j.closeLocked(onTerminal)
	return true
}

// closeLocked stamps the terminal transition, runs its hook and only then
// wakes the stream watchers.
func (j *Job) closeLocked(onTerminal func(runStarted time.Time)) {
	j.finishedAt = j.now()
	if onTerminal != nil {
		onTerminal(j.runStartedAt)
	}
	j.notifyStream()
}

// finishedBefore reports whether the job turned terminal before t (the
// retention TTL test).
func (j *Job) finishedBefore(t time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.terminal() && j.finishedAt.Before(t)
}

// setSweepsDone publishes progress. It does not wake stream watchers: a
// sweep without a new sample gives a stream nothing to write, and waking
// every subscriber per sweep is O(subscribers x sweeps) spurious wakeups.
func (j *Job) setSweepsDone(n int) {
	j.mu.Lock()
	j.sweepsDone = n
	j.mu.Unlock()
}

// appendSample records one streamed observation.
func (j *Job) appendSample(s encode.Sample) {
	j.mu.Lock()
	if len(j.samples) < j.history {
		j.samples = append(j.samples, s)
	} else {
		j.dropped++
	}
	j.notifyStream()
	j.mu.Unlock()
}

// watch returns the sample history (append-only: the prefix a caller has
// already consumed stays valid), the count of samples dropped beyond the
// history bound, whether the job is terminal, and a channel closed at the
// next sample append or terminal transition. Stream writers loop on it;
// per-sweep progress updates never fire it.
func (j *Job) watch() (samples []encode.Sample, dropped int, terminal bool, updated <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.samples, j.dropped, j.state.terminal(), j.streamed
}
