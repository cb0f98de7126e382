package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tpuising/internal/service"
)

// Scenario describes one load run against an isingd REST endpoint: how many
// virtual users of each kind, for how long, submitting which job. The spec
// template's Seed is the base of a cycling seed window, so a run mixes
// fresh simulations with cache hits the way repeated real queries would.
type Scenario struct {
	// BaseURL is the daemon's root, e.g. "http://localhost:8765".
	BaseURL string
	// Submitters is the number of concurrent submit→poll→result loops
	// (default 4). Each loop POSTs a spec, then either cancels it
	// (CancelEvery) or polls its status until terminal and fetches the
	// result.
	Submitters int
	// Subscribers is the number of concurrent NDJSON stream readers
	// (default 2). Each picks a recently submitted job and consumes its
	// /stream until the job ends.
	Subscribers int
	// Duration is the wall-clock run length (default 2s). Virtual users
	// stop starting new work at the deadline; in-flight requests finish.
	Duration time.Duration
	// Spec is the job template. Seed is overwritten per submission with
	// Spec.Seed + (i mod Seeds).
	Spec service.JobSpec
	// Seeds is the size of the cycling seed window (default 2*Submitters):
	// submissions beyond the first Seeds distinct ones repeat earlier specs
	// and should come back as cache hits.
	Seeds int
	// CancelEvery, when > 0, cancels every Nth accepted job right after
	// submission instead of awaiting it — the cancel-heavy traffic that
	// pins queue slots when cancellation leaks them.
	CancelEvery int
	// Clients, when > 0, spreads the submitters over this many distinct
	// client identities (submitter i sends X-Client-ID "client-NN" with
	// NN = i mod Clients), exercising the daemon's per-client quotas; a 429
	// is counted as QuotaRejected and backed off, the declared backpressure,
	// never an error. 0 sends no header (one anonymous quota bucket).
	Clients int
	// PollInterval is the status-poll spacing of submitters (default 2ms).
	PollInterval time.Duration
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Submitters <= 0 {
		sc.Submitters = 4
	}
	if sc.Subscribers < 0 {
		sc.Subscribers = 0
	}
	if sc.Duration <= 0 {
		sc.Duration = 2 * time.Second
	}
	if sc.Seeds <= 0 {
		sc.Seeds = 2 * sc.Submitters
	}
	if sc.PollInterval <= 0 {
		sc.PollInterval = 2 * time.Millisecond
	}
	return sc
}

// Report is the measured outcome of a scenario run: client-side request
// metrics plus the server-side counter delta over the run. It is the
// "service" section of a load Snapshot and the source of the flat metric
// map thresholds gate on.
type Report struct {
	// Echo of the scenario shape.
	BaseURL     string          `json:"base_url"`
	Submitters  int             `json:"submitters"`
	Subscribers int             `json:"subscribers"`
	Spec        service.JobSpec `json:"spec"`
	Seeds       int             `json:"seeds"`
	CancelEvery int             `json:"cancel_every,omitempty"`
	ElapsedSec  float64         `json:"elapsed_sec"`

	// Request counters. Errors are transport failures and unexpected status
	// codes; queue-full rejections (503 on submit) and quota rejections (429)
	// are counted separately — they are the service's declared backpressure,
	// not a malfunction.
	Requests      int64 `json:"requests"`
	Errors        int64 `json:"errors"`
	QueueFull     int64 `json:"queue_full"`
	QuotaRejected int64 `json:"quota_rejected,omitempty"`

	// Job outcomes as the submitters observed them. JobsFailed counts jobs
	// the server accepted and then moved to the failed state — a bad spec
	// or a broken engine, invisible in Errors because every request around
	// it succeeded.
	JobsAccepted int64 `json:"jobs_accepted"`
	JobsDone     int64 `json:"jobs_done"`
	JobsFailed   int64 `json:"jobs_failed"`
	JobsCanceled int64 `json:"jobs_canceled"`
	CacheHits    int64 `json:"cache_hits"`

	// Stream outcomes. StreamsStale counts subscriptions that hit a job
	// already evicted by the server's JobHistory retention (410 Gone) —
	// expected under cache-hit churn, so separate from Errors.
	Streams         int64 `json:"streams"`
	StreamsStale    int64 `json:"streams_stale,omitempty"`
	SamplesStreamed int64 `json:"samples_streamed"`

	// Latency summaries per request kind.
	Submit      LatencySummary `json:"submit"`
	Status      LatencySummary `json:"status"`
	Result      LatencySummary `json:"result"`
	FirstSample LatencySummary `json:"first_sample"`

	// Server is the /v1/stats counter delta over the run.
	Server ServerDelta `json:"server"`
}

// ServerDelta is the server-side view of the run, scraped from the daemon's
// Prometheus /metrics exposition: counters after minus before, gauges at
// after, plus rates derived against the run's wall clock.
type ServerDelta struct {
	JobsSubmitted   int64   `json:"jobs_submitted"`
	JobsCompleted   int64   `json:"jobs_completed"`
	JobsCanceled    int64   `json:"jobs_canceled"`
	JobsCached      int64   `json:"jobs_cached"`
	SweepsRun       int64   `json:"sweeps_run"`
	StreamWakeups   int64   `json:"stream_wakeups"`
	CacheEvictions  int64   `json:"cache_evictions"`
	QuotaRejections int64   `json:"quota_rejections"`
	WorkerPanics    int64   `json:"worker_panics"`
	CacheBytes      int64   `json:"cache_bytes"` // gauge: bytes held after the run
	SweepsPerSec    float64 `json:"sweeps_per_sec"`
	FlipsPerNs      float64 `json:"flips_per_ns"`
	WakeupsPerSweep float64 `json:"wakeups_per_sweep"`

	// Stage-latency quantiles over the run, in milliseconds, reconstructed
	// from the daemon's Prometheus histogram bucket deltas (two scrapes,
	// PromQL histogram_quantile math): where server-side time went — queue
	// wait, worker occupancy, checkpoint fsyncs, stream write batches. Zero
	// when the stage recorded nothing during the run.
	QueueWaitP50Ms       float64 `json:"queue_wait_p50_ms,omitempty"`
	QueueWaitP95Ms       float64 `json:"queue_wait_p95_ms,omitempty"`
	QueueWaitP99Ms       float64 `json:"queue_wait_p99_ms,omitempty"`
	RunP95Ms             float64 `json:"run_p95_ms,omitempty"`
	CheckpointWriteP95Ms float64 `json:"checkpoint_write_p95_ms,omitempty"`
	StreamWriteP95Ms     float64 `json:"stream_write_p95_ms,omitempty"`
}

// Metrics flattens the report into the metric map thresholds evaluate
// against; MetricNames lists the vocabulary.
func (r *Report) Metrics() map[string]float64 {
	m := map[string]float64{
		"requests":                 float64(r.Requests),
		"errors":                   float64(r.Errors),
		"queue_full":               float64(r.QueueFull),
		"quota_rejected":           float64(r.QuotaRejected),
		"quota_rejections":         float64(r.Server.QuotaRejections),
		"cache_evictions":          float64(r.Server.CacheEvictions),
		"cache_bytes":              float64(r.Server.CacheBytes),
		"worker_panics":            float64(r.Server.WorkerPanics),
		"jobs_done":                float64(r.JobsDone),
		"jobs_failed":              float64(r.JobsFailed),
		"samples_streamed":         float64(r.SamplesStreamed),
		"submit_p50_ms":            r.Submit.P50Ms,
		"submit_p95_ms":            r.Submit.P95Ms,
		"submit_p99_ms":            r.Submit.P99Ms,
		"status_p95_ms":            r.Status.P95Ms,
		"result_p95_ms":            r.Result.P95Ms,
		"first_sample_p95_ms":      r.FirstSample.P95Ms,
		"sweeps_per_sec":           r.Server.SweepsPerSec,
		"service_flips_per_ns":     r.Server.FlipsPerNs,
		"stream_wakeups_per_sweep": r.Server.WakeupsPerSweep,
		// Server-side stage quantiles: always present (zero when the stage
		// recorded nothing) so a threshold on them can never be Missing.
		"queue_wait_p50_ms":       r.Server.QueueWaitP50Ms,
		"queue_wait_p95_ms":       r.Server.QueueWaitP95Ms,
		"queue_wait_p99_ms":       r.Server.QueueWaitP99Ms,
		"run_p95_ms":              r.Server.RunP95Ms,
		"checkpoint_write_p95_ms": r.Server.CheckpointWriteP95Ms,
		"stream_write_p95_ms":     r.Server.StreamWriteP95Ms,
	}
	if r.ElapsedSec > 0 {
		m["requests_per_sec"] = float64(r.Requests) / r.ElapsedSec
		m["jobs_per_sec"] = float64(r.JobsDone) / r.ElapsedSec
	}
	if r.Requests > 0 {
		m["error_rate"] = float64(r.Errors) / float64(r.Requests)
		m["queue_full_rate"] = float64(r.QueueFull) / float64(r.Requests)
		m["quota_rejection_rate"] = float64(r.QuotaRejected) / float64(r.Requests)
	} else {
		m["error_rate"] = 1 // a run that made no requests did not pass
	}
	if submits := r.JobsAccepted + r.CacheHits; submits > 0 {
		m["cache_hit_rate"] = float64(r.CacheHits) / float64(submits)
	}
	return m
}

// Text renders the report as the k6-style console summary.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %d submitters + %d subscribers for %.1fs against %s\n",
		r.Submitters, r.Subscribers, r.ElapsedSec, r.BaseURL)
	fmt.Fprintf(&b, "  spec: %s %dx%d sweeps=%d sample_interval=%d seeds=%d\n",
		r.Spec.Backend, r.Spec.Rows, r.Spec.Cols, r.Spec.Sweeps, r.Spec.SampleInterval, r.Seeds)
	fmt.Fprintf(&b, "requests.............: %d (%.1f/s), errors %d, queue_full %d, quota_rejected %d\n",
		r.Requests, float64(r.Requests)/r.ElapsedSec, r.Errors, r.QueueFull, r.QuotaRejected)
	fmt.Fprintf(&b, "jobs.................: accepted %d, done %d, failed %d, canceled %d, cache hits %d\n",
		r.JobsAccepted, r.JobsDone, r.JobsFailed, r.JobsCanceled, r.CacheHits)
	fmt.Fprintf(&b, "streams..............: %d (%d stale), samples %d\n",
		r.Streams, r.StreamsStale, r.SamplesStreamed)
	line := func(name string, s LatencySummary) {
		fmt.Fprintf(&b, "%s: n=%-6d p50=%8.2fms p95=%8.2fms p99=%8.2fms max=%8.2fms\n",
			name, s.Count, s.P50Ms, s.P95Ms, s.P99Ms, s.MaxMs)
	}
	line("submit latency.......", r.Submit)
	line("status latency.......", r.Status)
	line("result latency.......", r.Result)
	line("first sample latency.", r.FirstSample)
	fmt.Fprintf(&b, "server...............: %d sweeps (%.0f/s, %.4f flips/ns), %d stream wakeups (%.3f/sweep)\n",
		r.Server.SweepsRun, r.Server.SweepsPerSec, r.Server.FlipsPerNs,
		r.Server.StreamWakeups, r.Server.WakeupsPerSweep)
	fmt.Fprintf(&b, "server limits........: %d cache evictions, %d cache bytes held, %d quota rejections, %d worker panics\n",
		r.Server.CacheEvictions, r.Server.CacheBytes, r.Server.QuotaRejections, r.Server.WorkerPanics)
	fmt.Fprintf(&b, "server stages (p95)..: queue_wait=%.2fms run=%.2fms checkpoint_write=%.2fms stream_write=%.2fms\n",
		r.Server.QueueWaitP95Ms, r.Server.RunP95Ms, r.Server.CheckpointWriteP95Ms, r.Server.StreamWriteP95Ms)
	return b.String()
}

// runState is the shared mutable state of one scenario run.
type runState struct {
	sc       Scenario
	client   *http.Client
	deadline time.Time

	submitH, statusH, resultH, firstSampleH *Histogram

	requests, errors, queueFull, quotaRejected        atomic.Int64
	jobsAccepted, jobsDone, jobsFailed, jobsCanceled  atomic.Int64
	cacheHits, streams, streamsStale, samplesStreamed atomic.Int64
	seedCounter                                       atomic.Int64

	mu  sync.Mutex
	ids []string // ring of recently accepted job IDs for subscribers
}

// idRingCap bounds the subscriber job-ID ring.
const idRingCap = 256

func (rs *runState) pushID(id string) {
	rs.mu.Lock()
	rs.ids = append(rs.ids, id)
	if len(rs.ids) > idRingCap {
		rs.ids = rs.ids[len(rs.ids)-idRingCap:]
	}
	rs.mu.Unlock()
}

func (rs *runState) pickID(rnd *rand.Rand) (string, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.ids) == 0 {
		return "", false
	}
	return rs.ids[rnd.Intn(len(rs.ids))], true
}

// dropID removes a job ID the server no longer knows (evicted by its
// JobHistory retention), so subscribers stop re-picking it.
func (rs *runState) dropID(id string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i, have := range rs.ids {
		if have == id {
			rs.ids = append(rs.ids[:i], rs.ids[i+1:]...)
			return
		}
	}
}

// Run executes the scenario and assembles the report. The context bounds
// the whole run (on top of the scenario duration); transport-level failures
// of the stats endpoint — without which there is no report — are returned
// as errors, per-request failures are counted in the report.
func (sc Scenario) Run(ctx context.Context) (*Report, error) {
	sc = sc.withDefaults()
	rs := &runState{
		sc: sc,
		// One client for every virtual user; no global timeout because
		// streams legitimately live as long as jobs. Per-request bounds
		// come from the run deadline via request contexts.
		client:       &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: sc.Submitters + sc.Subscribers}},
		submitH:      NewHistogram(),
		statusH:      NewHistogram(),
		resultH:      NewHistogram(),
		firstSampleH: NewHistogram(),
	}
	before, err := rs.fetchMetrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("load: scraping %s/metrics before the run: %w", sc.BaseURL, err)
	}

	rs.deadline = time.Now().Add(sc.Duration)
	runCtx, cancel := context.WithDeadline(ctx, rs.deadline.Add(30*time.Second))
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < sc.Submitters; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rs.submitter(runCtx, id)
		}(i)
	}
	for i := 0; i < sc.Subscribers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rs.subscriber(runCtx, id)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := rs.fetchMetrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("load: scraping %s/metrics after the run: %w", sc.BaseURL, err)
	}
	return rs.report(elapsed, before, after), nil
}

// report assembles the final Report from the run state and the scraped
// metrics delta.
func (rs *runState) report(elapsed time.Duration, before, after map[string]float64) *Report {
	r := &Report{
		BaseURL:     rs.sc.BaseURL,
		Submitters:  rs.sc.Submitters,
		Subscribers: rs.sc.Subscribers,
		Spec:        rs.sc.Spec,
		Seeds:       rs.sc.Seeds,
		CancelEvery: rs.sc.CancelEvery,
		ElapsedSec:  elapsed.Seconds(),

		Requests:      rs.requests.Load(),
		Errors:        rs.errors.Load(),
		QueueFull:     rs.queueFull.Load(),
		QuotaRejected: rs.quotaRejected.Load(),

		JobsAccepted: rs.jobsAccepted.Load(),
		JobsDone:     rs.jobsDone.Load(),
		JobsFailed:   rs.jobsFailed.Load(),
		JobsCanceled: rs.jobsCanceled.Load(),
		CacheHits:    rs.cacheHits.Load(),

		Streams:         rs.streams.Load(),
		StreamsStale:    rs.streamsStale.Load(),
		SamplesStreamed: rs.samplesStreamed.Load(),

		Submit:      rs.submitH.Summary(),
		Status:      rs.statusH.Summary(),
		Result:      rs.resultH.Summary(),
		FirstSample: rs.firstSampleH.Summary(),
	}
	delta := func(name string) int64 { return int64(after[name] - before[name]) }
	d := ServerDelta{
		JobsSubmitted:   delta("isingd_jobs_submitted_total"),
		JobsCompleted:   delta("isingd_jobs_completed_total"),
		JobsCanceled:    delta("isingd_jobs_canceled_total"),
		JobsCached:      delta("isingd_jobs_cached_total"),
		SweepsRun:       delta("isingd_sweeps_run_total"),
		StreamWakeups:   delta("isingd_stream_wakeups_total"),
		CacheEvictions:  delta("isingd_cache_evictions_total"),
		QuotaRejections: delta("isingd_quota_rejections_total"),
		WorkerPanics:    delta("isingd_worker_panics_total"),
		CacheBytes:      int64(after["isingd_cache_bytes"]),
	}
	if s := elapsed.Seconds(); s > 0 {
		d.SweepsPerSec = float64(d.SweepsRun) / s
		cols := rs.sc.Spec.Cols
		if cols == 0 {
			cols = rs.sc.Spec.Rows
		}
		// Spin flips the service executed for this spec shape, per
		// wall-clock nanosecond — the service-level view of engine flips/ns.
		d.FlipsPerNs = float64(d.SweepsRun) * float64(rs.sc.Spec.Rows) * float64(cols) / (s * 1e9)
	}
	if d.SweepsRun > 0 {
		d.WakeupsPerSweep = float64(d.StreamWakeups) / float64(d.SweepsRun)
	}
	const toMs = 1e3 // histogram buckets are seconds; the report speaks ms
	d.QueueWaitP50Ms = toMs * histQuantileDelta(before, after, "isingd_queue_wait_seconds", 0.50)
	d.QueueWaitP95Ms = toMs * histQuantileDelta(before, after, "isingd_queue_wait_seconds", 0.95)
	d.QueueWaitP99Ms = toMs * histQuantileDelta(before, after, "isingd_queue_wait_seconds", 0.99)
	d.RunP95Ms = toMs * histQuantileDelta(before, after, "isingd_run_seconds", 0.95)
	d.CheckpointWriteP95Ms = toMs * histQuantileDelta(before, after, "isingd_checkpoint_write_seconds", 0.95)
	d.StreamWriteP95Ms = toMs * histQuantileDelta(before, after, "isingd_stream_write_seconds", 0.95)
	r.Server = d
	return r
}

// fetchMetrics scrapes the daemon's Prometheus /metrics exposition into a
// flat name → value map — the same scrape any monitoring stack would do.
func (rs *runState) fetchMetrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rs.sc.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rs.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics endpoint returned %d", resp.StatusCode)
	}
	return parsePromText(resp.Body)
}

// submitter is one virtual submitting user: until the deadline, POST a spec
// from the seed window, then cancel it or await its result.
func (rs *runState) submitter(ctx context.Context, id int) {
	client := ""
	if rs.sc.Clients > 0 {
		client = fmt.Sprintf("client-%02d", id%rs.sc.Clients)
	}
	submitted := 0
	for time.Now().Before(rs.deadline) && ctx.Err() == nil {
		spec := rs.sc.Spec
		spec.Seed = rs.sc.Spec.Seed + uint64(rs.seedCounter.Add(1)%int64(rs.sc.Seeds))
		st, code, err := rs.postJob(ctx, spec, client)
		if err != nil {
			rs.errors.Add(1)
			continue
		}
		switch code {
		case http.StatusOK: // cache hit: result came back inline
			rs.cacheHits.Add(1)
			rs.jobsDone.Add(1)
		case http.StatusAccepted:
			rs.jobsAccepted.Add(1)
			submitted++
			if rs.sc.CancelEvery > 0 && submitted%rs.sc.CancelEvery == 0 {
				rs.cancelJob(ctx, st.ID)
				continue
			}
			rs.pushID(st.ID)
			rs.awaitResult(ctx, st.ID)
		case http.StatusServiceUnavailable:
			rs.queueFull.Add(1)
			// Back off briefly: the queue is telling us it is full.
			sleepCtx(ctx, rs.sc.PollInterval)
		case http.StatusTooManyRequests:
			// The per-client quota said no: declared backpressure, like a
			// full queue. Back off until some of our jobs drain.
			rs.quotaRejected.Add(1)
			sleepCtx(ctx, rs.sc.PollInterval)
		default:
			rs.errors.Add(1)
		}
	}
}

// postJob submits one spec under a client identity, recording the request
// latency.
func (rs *runState) postJob(ctx context.Context, spec service.JobSpec, client string) (service.JobStatus, int, error) {
	var st service.JobStatus
	blob, err := json.Marshal(spec)
	if err != nil {
		return st, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rs.sc.BaseURL+"/v1/jobs", bytes.NewReader(blob))
	if err != nil {
		return st, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	start := time.Now()
	resp, err := rs.client.Do(req)
	rs.requests.Add(1)
	if err != nil {
		return st, 0, err
	}
	rs.submitH.Observe(time.Since(start))
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return st, resp.StatusCode, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode, nil
}

// cancelJob cancels one job, counting it.
func (rs *runState) cancelJob(ctx context.Context, id string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, rs.sc.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		rs.errors.Add(1)
		return
	}
	resp, err := rs.client.Do(req)
	rs.requests.Add(1)
	if err != nil {
		rs.errors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rs.errors.Add(1)
		return
	}
	rs.jobsCanceled.Add(1)
}

// awaitResult polls the job's status until terminal, then fetches the
// result, recording poll and result latencies. Jobs still running at the
// deadline are abandoned (their requests simply stop), like load-test users
// walking away.
func (rs *runState) awaitResult(ctx context.Context, id string) {
	for ctx.Err() == nil {
		start := time.Now()
		code, st, err := rs.getStatus(ctx, id)
		if err != nil {
			rs.errors.Add(1)
			return
		}
		rs.statusH.Observe(time.Since(start))
		if code == http.StatusGone {
			// The job finished and aged out of the history between polls —
			// retention doing its job under churn, not a malfunction.
			return
		}
		if code != http.StatusOK {
			rs.errors.Add(1)
			return
		}
		if st.State == service.StateDone {
			break
		}
		if st.State == service.StateFailed {
			rs.jobsFailed.Add(1)
			return
		}
		if st.State == service.StateCanceled {
			return
		}
		if time.Now().After(rs.deadline.Add(10 * time.Second)) {
			return // abandoned: the run is over and the job still going
		}
		sleepCtx(ctx, rs.sc.PollInterval)
	}
	if ctx.Err() != nil {
		return
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rs.sc.BaseURL+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		rs.errors.Add(1)
		return
	}
	resp, err := rs.client.Do(req)
	rs.requests.Add(1)
	if err != nil {
		rs.errors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		return // evicted between the final poll and the fetch: retention churn
	}
	if resp.StatusCode != http.StatusOK {
		rs.errors.Add(1)
		return
	}
	rs.resultH.Observe(time.Since(start))
	rs.jobsDone.Add(1)
}

// getStatus reads one job status.
func (rs *runState) getStatus(ctx context.Context, id string) (int, service.JobStatus, error) {
	var st service.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rs.sc.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return 0, st, err
	}
	resp, err := rs.client.Do(req)
	rs.requests.Add(1)
	if err != nil {
		return 0, st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&st)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, st, err
}

// subscriber is one virtual streaming user: until the deadline, pick a
// recently accepted job and consume its NDJSON stream to the end, recording
// the time to the first sample line.
func (rs *runState) subscriber(ctx context.Context, id int) {
	rnd := rand.New(rand.NewSource(int64(id) + 1))
	for time.Now().Before(rs.deadline) && ctx.Err() == nil {
		jobID, ok := rs.pickID(rnd)
		if !ok {
			sleepCtx(ctx, rs.sc.PollInterval)
			continue
		}
		rs.consumeStream(ctx, jobID)
	}
}

// consumeStream reads one /stream response to EOF.
func (rs *runState) consumeStream(ctx context.Context, jobID string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rs.sc.BaseURL+"/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		rs.errors.Add(1)
		return
	}
	start := time.Now()
	resp, err := rs.client.Do(req)
	rs.requests.Add(1)
	if err != nil {
		rs.errors.Add(1)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone || resp.StatusCode == http.StatusNotFound {
		// The job aged out of the server's JobHistory retention (410; 404
		// from pre-retention daemons) between our picking its ID and
		// subscribing — expected under cache-hit churn.
		io.Copy(io.Discard, resp.Body)
		rs.streamsStale.Add(1)
		rs.dropID(jobID)
		return
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		rs.errors.Add(1)
		return
	}
	rs.streams.Add(1)
	scanner := bufio.NewScanner(resp.Body)
	first := true
	for scanner.Scan() {
		if first {
			rs.firstSampleH.Observe(time.Since(start))
			first = false
		}
		rs.samplesStreamed.Add(1)
	}
	// A stream cut by the run context expiring is expected shutdown, not a
	// service error.
	if err := scanner.Err(); err != nil && ctx.Err() == nil {
		rs.errors.Add(1)
	}
}

// sleepCtx sleeps for d or until the context ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
