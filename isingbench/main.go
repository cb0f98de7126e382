// Command isingbench is the repository's end-to-end benchmark of the isingd
// simulation daemon. For one workload it starts a fresh isingd child
// process pinned to one core, drives it over loopback HTTP with closed-loop
// clients from this process (also one core), checks every result, and prints
// the end-to-end metrics; with -trace 1 it instead prints per-layer metrics
// from a traced drive plus an in-process replay of the workload through the
// layers' public entry points. README.md describes the workloads and metrics.
//
// It is run from the repository root through run.sh, which builds isingd and
// this command from source first:
//
//	bash isingbench/run.sh --workload chain-2048 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// report (host identity, sample counts, check counts, every metric).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"tpuising/internal/service"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the daemon sees, reported with tracing
// off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"flips_per_ns", "flips/ns"},
	{"jobs_per_s", "1/s"},
	{"job_fast_ms", "ms"},
	{"first_sample_fast_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// perLayer are the traced run's metrics, named module.metric.
var perLayer = []metricDef{
	{"rng.ns_per_block", "ns"},
	{"multispin.update_row_flips_per_ns", "flips/ns"},
	{"multispin.kernel_share", "ratio"},
	{"ensemble.update_row_flips_per_ns", "flips/ns"},
	{"backend.new_ms", "ms"},
	{"backend.sweep_ms", "ms"},
	{"interconnect.halo_bytes_per_sweep", "bytes"},
	{"interconnect.permutes_per_sweep", "count"},
	{"interconnect.overhead_share", "ratio"},
	{"sweep.measure_us", "us"},
	{"tempering.round_ms", "ms"},
	{"tempering.swap_us", "us"},
	{"service.submit_us", "us"},
	{"service.queue_wait_p50_ms", "ms"},
	{"service.run_p50_ms", "ms"},
	{"service.overhead_p50_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.rejections", "count"},
	{"service.alloc_kb_per_job", "KiB"},
	{"service.gc_per_1k_jobs", "count"},
	{"checkpoint.writes_per_job", "count"},
	{"checkpoint.bytes_per_job", "bytes"},
	{"checkpoint.write_p50_ms", "ms"},
	{"checkpoint.encode_ms", "ms"},
	{"stream.lines_per_job", "count"},
	{"stream.wakeups_per_line", "ratio"},
	{"stream.write_p95_ms", "ms"},
	{"encode.result_us", "us"},
	{"encode.result_bytes", "bytes"},
	{"http.submit_p50_ms", "ms"},
	{"http.result_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.flips_overhead_pct", "%"},
}

// setupStarts is how many times a run starts the daemon to time set-up; the
// median is reported and the last daemon serves the run.
const setupStarts = 21

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	isingd   string
	workdir  string
}

// outcome is the result line: the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: chain-2048, lanes-pod or service-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: every spec the daemon sees derives from it")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&o.isingd, "isingd", "", "path of the isingd binary to benchmark")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory for checkpoints and trace output")
	flag.Parse()
	o.trace = trace == 1
	// The load process runs on one thread and shares one CPU with the
	// daemon it starts (README.md, "One CPU").
	runtime.GOMAXPROCS(1)
	cpu, err := pinToOneCPU()
	if err == nil {
		err = run(o, cpu)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "isingbench: %v\n", err)
		os.Exit(1)
	}
}

// window is one timed closed-loop drive and the daemon counters around it.
type window struct {
	recs          [][]*jobRecord
	t0, deadline  time.Time
	before, after service.Stats
	verdict       verdict
	e2e           e2eResult
	stealPct      float64 // CPU time stolen by the hypervisor during the drive
	// peakRSSMB is the daemon's VmHWM once rssJobs jobs of the window have
	// completed (0 if fewer did).
	peakRSSMB float64
	rssErr    error
}

// rssJobs is how many jobs of a window have completed when the daemon's
// peak resident set is read. Every finished job stays in the daemon's job
// history, so a fixed count keeps the figure from growing with the number of
// jobs a faster host fits into the window.
const rssJobs = minJobs

// report is the full result, printed as the line before the result line.
type report struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  int            `json:"seconds"`
	Traced   bool           `json:"traced"`
	Host     host           `json:"host"`
	StealPct float64        `json:"steal_pct"`
	SetupS   []float64      `json:"setup_s_samples"`
	Samples  map[string]int `json:"samples"`
	// Window holds whole-window figures of the plain window, not gated.
	Window  map[string]metric  `json:"window"`
	Errors  []string           `json:"errors,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	Trace   string             `json:"trace_file,omitempty"`
}

func run(o options, cpu int) error {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.isingd == "" || o.workdir == "" {
		return errors.New("-isingd and -workdir are required (run.sh sets them)")
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	runDir := filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	rep := report{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Samples: map[string]int{}, Metrics: map[string]float64{}}
	ckptDir := ""
	if w.durable {
		ckptDir = filepath.Join(runDir, "ckpt")
	}
	var d *daemon
	for i := 0; i < setupStarts; i++ {
		if d != nil {
			d.stop()
			hc.CloseIdleConnections()
		}
		var took time.Duration
		if d, took, err = startDaemon(o.isingd, ckptDir, hc); err != nil {
			return err
		}
		rep.SetupS = append(rep.SetupS, took.Seconds())
	}
	defer d.stop()
	rep.Host = hostIdentity(ckptDir, cpu)
	rep.Metrics["setup_s"] = median(rep.SetupS)

	dr := &loadGen{d: d, hc: hc}
	dr.drive(generators(w, o.seed, 1000), func(done int) bool { return done < w.warmup })

	plain, err := dr.window(w, o.seed, 0, o.seconds)
	if err != nil {
		return err
	}
	var traced *window
	var metricsBefore, metricsAfter string
	if o.trace {
		dr.tr = newTracer()
		if metricsBefore, err = d.metricsText(hc); err != nil {
			return err
		}
		if traced, err = dr.window(w, o.seed, 2000, o.seconds); err != nil {
			return err
		}
		if metricsAfter, err = d.metricsText(hc); err != nil {
			return err
		}
	} else if plain.rssErr != nil {
		return plain.rssErr
	}
	d.stop()

	windows := []*window{plain}
	if traced != nil {
		windows = append(windows, traced)
	}
	out := outcome{Correct: true, Metrics: map[string]metric{}}
	for _, win := range windows {
		win.verdict = checkRecords(w, o.seed, win.recs)
		rep.Errors = append(rep.Errors, win.verdict.errs...)
		if err := win.countersAgree(w.durable); err != nil {
			rep.Errors = append(rep.Errors, err.Error())
			out.Correct = false
		}
		if win.e2e, err = endToEndOf(win, w.roundJobs()); err != nil {
			return fmt.Errorf("%w (first failures: %v)", err, win.verdict.errs)
		}
		out.Attempted += win.verdict.attempted
		out.Failed += win.verdict.failed
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	e := plain.e2e
	rep.StealPct = plain.stealPct
	rep.Samples["submitted"] = plain.verdict.attempted
	rep.Samples["latency_samples"] = e.jobs
	rep.Samples["first_sample_samples"] = e.firstSamples
	rep.Samples["rounds"] = e.rounds
	rep.Samples["round_jobs"] = w.roundJobs()
	rep.Window = map[string]metric{
		"job_p50_ms":          {e.p50, "ms"},
		"job_p90_ms":          {e.p90, "ms"},
		"first_sample_p50_ms": {e.firstP50, "ms"},
		"flips_per_ns":        {e.windowFlipsPerNs, "flips/ns"},
		"jobs_per_s":          {e.windowJobsPerS, "1/s"},
	}
	rep.Samples["deep_checked"] = plain.verdict.deep
	rep.Samples["cache_hits_compared"] = plain.verdict.cacheHits
	rep.Samples["setup_starts"] = setupStarts

	defs := endToEnd
	if o.trace {
		defs = perLayer
		if err := traced.layerFromDrive(dr.tr, metricsBefore, metricsAfter, rep.Metrics); err != nil {
			return err
		}
		rep.Metrics["trace.overhead_pct"] = 100 * (traced.e2e.jobFast - e.jobFast) / e.jobFast
		rep.Metrics["trace.flips_overhead_pct"] = 100 * (e.flipsPerNs - traced.e2e.flipsPerNs) / e.flipsPerNs
		if err := layerMetrics(w, o.seed, dr.tr, rep.Metrics, runDir); err != nil {
			return err
		}
		rep.Trace = filepath.Join(o.workdir, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
		if err := writeTrace(rep.Trace, dr.tr, traced, metricsBefore, metricsAfter); err != nil {
			return err
		}
	} else {
		rep.Metrics["flips_per_ns"] = e.flipsPerNs
		rep.Metrics["jobs_per_s"] = e.jobsPerS
		rep.Metrics["job_fast_ms"] = e.jobFast
		rep.Metrics["first_sample_fast_ms"] = e.firstFast
		rep.Metrics["success_rate"] = e.successRate
		rep.Metrics["peak_rss_mb"] = plain.peakRSSMB
	}
	for _, def := range defs {
		v, ok := rep.Metrics[def.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", def.name)
		}
		out.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	for _, line := range []any{rep, out} {
		blob, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
	}
	return nil
}

// generators returns one job generator per client, numbered from stream.
func generators(w workload, seed uint64, stream int) []*generator {
	gens := make([]*generator, w.clients)
	for c := range gens {
		gens[c] = newGenerator(w, seed, stream+c)
	}
	return gens
}

// window runs one timed closed-loop drive of the given length, bracketed by
// /v1/stats snapshots taken once every client has stopped.
func (dr *loadGen) window(w workload, seed uint64, stream, seconds int) (*window, error) {
	win := &window{}
	var err error
	if win.before, err = dr.d.stats(dr.hc); err != nil {
		return nil, err
	}
	ticks := cpuTimes()
	win.t0 = time.Now()
	win.deadline = win.t0.Add(time.Duration(seconds) * time.Second)
	// Each client asks before its first job and after every job, so past
	// the first w.clients calls each call follows one more completed job.
	var calls atomic.Int64
	win.recs = dr.drive(generators(w, seed, stream), func(int) bool {
		if calls.Add(1)-int64(w.clients) == rssJobs {
			win.peakRSSMB, win.rssErr = dr.d.peakRSSMB()
		}
		return time.Now().Before(win.deadline)
	})
	win.stealPct = stealPct(ticks, cpuTimes())
	if win.after, err = dr.d.stats(dr.hc); err != nil {
		return nil, err
	}
	return win, nil
}

// countersAgree checks the daemon's exact counters against the jobs the
// benchmark sent: sweeps_run must grow by the sweeps of the non-cached jobs
// (times their lanes), and checkpoints_written, on a durable daemon, by one
// intent record per non-cached job plus the snapshots its
// checkpoint_interval asks for (by nothing otherwise).
func (win *window) countersAgree(durable bool) error {
	var sweeps, writes int64
	for _, client := range win.recs {
		for _, rec := range client {
			sweeps += sweepsOf(rec)
			if durable {
				writes += checkpointWritesOf(rec)
			}
		}
	}
	if got := win.after.SweepsRun - win.before.SweepsRun; got != sweeps {
		return fmt.Errorf("sweeps_run grew by %d, the non-cached jobs ran %d", got, sweeps)
	}
	if got := win.after.CheckpointsWritten - win.before.CheckpointsWritten; got != writes {
		return fmt.Errorf("checkpoints_written grew by %d, want %d", got, writes)
	}
	return nil
}

// checkpointWritesOf is the checkpoint files a job writes on a durable
// daemon: nothing for a cache hit, otherwise the intent record at admission
// plus one snapshot at every multiple of its checkpoint interval short of
// the end.
func checkpointWritesOf(rec *jobRecord) int64 {
	if rec.cached {
		return 0
	}
	s := rec.plan.norm
	writes := int64(1)
	if s.CheckpointInterval > 0 {
		writes += int64((s.BurnIn + s.Sweeps - 1) / s.CheckpointInterval)
	}
	return writes
}

// e2eResult holds a window's end-to-end figures.
type e2eResult struct {
	flipsPerNs, jobsPerS, jobFast, firstFast, successRate float64
	jobs, firstSamples, rounds                            int
	// Figures of the whole window, reported but not gated: on a host whose
	// speed switches between levels they follow the share of time spent at
	// each level (README.md, "Fast-phase metrics").
	p50, p90, firstP50, windowFlipsPerNs, windowJobsPerS float64
}

// fastRounds is how many of a window's rounds the fast-phase metrics
// average: the fastest ones, at most a tenth of the minJobs rounds a run
// needs.
const fastRounds = 10

// endToEndOf computes a window's end-to-end metrics from the jobs that
// passed their checks and finished before the deadline, taken in completion
// order and cut into consecutive rounds of roundJobs jobs. Each round runs
// from the previous round's last result (the first from the window's start)
// to its own last result, so a job still in flight at a cut or at the
// deadline neither counts nor leaves idle time in a denominator. Each
// fast-phase metric is the mean, over the fastRounds rounds that score best
// on it, of a round's rate or mean latency. The exact job p50 and p90 are
// taken over every job. The run fails below minJobs jobs or minJobs rounds.
func endToEndOf(win *window, roundJobs int) (e2eResult, error) {
	var r e2eResult
	var done []*jobRecord
	var lat, first []float64
	ok := 0
	for _, client := range win.recs {
		for _, rec := range client {
			if !win.verdict.ok[rec] {
				continue
			}
			ok++
			if rec.end.After(win.deadline) {
				continue
			}
			done = append(done, rec)
			lat = append(lat, ms(rec.latency()))
			if !rec.cached {
				first = append(first, ms(rec.firstSample))
			}
		}
	}
	var err error
	if r.p50, r.p90, err = latencyQuantiles(lat); err != nil {
		return r, err
	}
	sort.Slice(done, func(i, j int) bool { return done[i].end.Before(done[j].end) })
	var flipRates, jobRates, roundLat, roundFirst []float64
	var totalFlips float64
	from := win.t0
	for k := 0; (k+1)*roundJobs <= len(done); k++ {
		round := done[k*roundJobs : (k+1)*roundJobs]
		to := round[len(round)-1].end
		var f, l, fs float64
		var computed int
		for _, rec := range round {
			f += flips(rec.plan.norm, rec.cached)
			l += ms(rec.latency())
			if !rec.cached {
				fs += ms(rec.firstSample)
				computed++
			}
		}
		flipRates = append(flipRates, f/float64(to.Sub(from).Nanoseconds()))
		jobRates = append(jobRates, float64(len(round))/to.Sub(from).Seconds())
		roundLat = append(roundLat, l/float64(len(round)))
		if computed > 0 {
			roundFirst = append(roundFirst, fs/float64(computed))
		}
		totalFlips += f
		from = to
	}
	if len(roundLat) < minJobs {
		return r, fmt.Errorf("only %d rounds of %d jobs completed in the timed window; at least %d are needed for a fast-phase quantile", len(roundLat), roundJobs, minJobs)
	}
	r.jobs, r.firstSamples, r.rounds = len(lat), len(first), len(roundLat)
	r.flipsPerNs = fastMean(flipRates, true)
	r.jobsPerS = fastMean(jobRates, true)
	r.jobFast = fastMean(roundLat, false)
	r.firstFast = fastMean(roundFirst, false)
	r.firstP50 = median(first)
	elapsed := from.Sub(win.t0)
	r.windowFlipsPerNs = totalFlips / float64(elapsed.Nanoseconds())
	r.windowJobsPerS = float64(len(roundLat)*roundJobs) / elapsed.Seconds()
	r.successRate = float64(ok) / float64(win.verdict.attempted)
	return r, nil
}

// fastMean is the mean of the fastRounds best values of xs (of all of them
// when there are fewer): the highest of rates, the lowest of latencies.
func fastMean(xs []float64, rate bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if rate {
		s = s[max(len(s)-fastRounds, 0):]
	} else {
		s = s[:min(fastRounds, len(s))]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// layerFromDrive fills the per-layer metrics the traced drive measures:
// client spans, the daemon's per-job traces, and the /v1/stats and /metrics
// deltas over the traced window.
func (win *window) layerFromDrive(tr *tracer, metricsBefore, metricsAfter string, m map[string]float64) error {
	var queue, run, overhead []float64
	var lines, computed int
	for _, client := range win.recs {
		for _, rec := range client {
			if rec.cached || rec.trace == nil {
				continue
			}
			computed++
			lines += rec.lines
			queue = append(queue, rec.trace.QueueWaitMs)
			run = append(run, rec.trace.RunMs)
			overhead = append(overhead, ms(rec.latency())-rec.trace.RunMs)
		}
	}
	if computed == 0 {
		return errors.New("the traced drive computed no jobs")
	}
	b, a := win.before, win.after
	m["service.queue_wait_p50_ms"] = median(queue)
	m["service.run_p50_ms"] = median(run)
	m["service.overhead_p50_ms"] = median(overhead)
	m["service.cache_hit_ratio"] = float64(a.JobsCached-b.JobsCached) / float64(a.JobsSubmitted-b.JobsSubmitted)
	m["service.rejections"] = float64(a.QuotaRejections - b.QuotaRejections + a.QueueFullRejections - b.QueueFullRejections)
	m["checkpoint.writes_per_job"] = float64(a.CheckpointsWritten-b.CheckpointsWritten) / float64(computed)
	m["checkpoint.bytes_per_job"] = float64(a.CheckpointBytes-b.CheckpointBytes) / float64(computed)
	m["stream.lines_per_job"] = float64(lines) / float64(computed)
	m["stream.wakeups_per_line"] = float64(a.StreamWakeups-b.StreamWakeups) / float64(lines)
	var err error
	if m["checkpoint.write_p50_ms"], err = histQuantileDelta(metricsBefore, metricsAfter, "isingd_checkpoint_write_seconds", 0.5); err != nil {
		return err
	}
	if m["stream.write_p95_ms"], err = histQuantileDelta(metricsBefore, metricsAfter, "isingd_stream_write_seconds", 0.95); err != nil {
		return err
	}
	m["http.submit_p50_ms"] = median(tr.durations("http.submit"))
	m["http.result_p50_ms"] = median(tr.durations("http.result"))
	return nil
}
