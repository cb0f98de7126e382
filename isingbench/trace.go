package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"tpuising/internal/service"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started; Parent is the enclosing span's ID (0 for a root) and
// Job the daemon job ID the span belongs to, when it has one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs pay no tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans)
}

// end closes span id, optionally (re)labelling its job.
func (t *tracer) end(id int, job string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if job != "" {
		s.Job = job
	}
}

// timed runs fn inside a root span and returns its duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	id := t.begin(name, 0, "")
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id, "")
	return d
}

// durations returns the durations, in milliseconds, of every closed span
// with the given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// traceFile is the traced run's output: every span, each traced job's
// daemon timeline, and the daemon's counters and exposition around the
// traced drive.
type traceFile struct {
	Spans         []span             `json:"spans"`
	Jobs          []service.JobTrace `json:"jobs"`
	StatsBefore   service.Stats      `json:"stats_before"`
	StatsAfter    service.Stats      `json:"stats_after"`
	MetricsBefore string             `json:"metrics_before"`
	MetricsAfter  string             `json:"metrics_after"`
}

// writeTrace writes the traced run's spans and daemon views to path.
func writeTrace(path string, tr *tracer, win *window, metricsBefore, metricsAfter string) error {
	tf := traceFile{
		Spans: tr.snapshot(), StatsBefore: win.before, StatsAfter: win.after,
		MetricsBefore: metricsBefore, MetricsAfter: metricsAfter,
	}
	for _, client := range win.recs {
		for _, rec := range client {
			if rec.trace != nil {
				tf.Jobs = append(tf.Jobs, *rec.trace)
			}
		}
	}
	blob, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
