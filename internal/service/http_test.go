package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tpuising/internal/rng"
	"tpuising/internal/service/encode"
)

// postJob submits a spec over HTTP and decodes the returned status.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (JobStatus, int) {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestHTTPEndpoints is the endpoint smoke: submit, poll, stream, fetch the
// result, list, cancel, stats — the loop a daemon client performs.
func TestHTTPEndpoints(t *testing.T) {
	srv, _ := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Backend: "multispin", Rows: 8, Cols: 64, Sweeps: 24,
		Temperature: 2.4, Seed: 2, SampleInterval: 2}
	st, code := postJob(t, ts, spec)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit returned %d", code)
	}
	if st.ID == "" || st.Spec.Backend != "multispin" {
		t.Fatalf("submit status: %+v", st)
	}

	// The stream endpoint delivers every sample as an NDJSON line and ends
	// when the job does.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var streamed []encode.Sample
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		var sm encode.Sample
		if err := json.Unmarshal(scanner.Bytes(), &sm); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		streamed = append(streamed, sm)
	}
	resp.Body.Close()
	if len(streamed) != 12 {
		t.Fatalf("streamed %d samples, want 12", len(streamed))
	}
	if streamed[0].Job != st.ID || streamed[11].Sweep != 24 {
		t.Fatalf("stream contents: first %+v, last %+v", streamed[0], streamed[11])
	}

	// Poll the job until done, then fetch the result.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got JobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &got); code != http.StatusOK {
			t.Fatalf("poll returned %d", code)
		} else if got.State == StateDone {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", got)
		}
		time.Sleep(time.Millisecond)
	}
	var result encode.Result
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result", &result); code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}
	if result.Backend != "multispin" || result.Samples != 12 || result.Step != 48 {
		t.Fatalf("result: %+v", result)
	}

	// Cached resubmission answers 200 immediately with the result inline.
	st2, code := postJob(t, ts, spec)
	if code != http.StatusOK || !st2.Cached || st2.Result == nil {
		t.Fatalf("cached submit: code %d, status %+v", code, st2)
	}

	// List shows both jobs; stats count the cache hit.
	var list []JobStatus
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("list: code %d, %d jobs", code, len(list))
	}
	var stats Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats returned %d", code)
	}
	if stats.JobsSubmitted != 2 || stats.JobsCached != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Unknown job: 404 with a JSON error body.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || apiErr.Error == "" {
		t.Fatalf("unknown job: %d %+v", resp.StatusCode, apiErr)
	}

	// Invalid spec: 400, and the unknown-backend message lists the registry.
	for body, wantFragment := range map[string]string{
		`{"backend":"nope","rows":8,"sweeps":1}`:                   "want one of",
		`{"backend":"cpu","rows":8}`:                               "sweeps",
		`{"backend":"cpu","rows":8,"sweeps":1,"bogus_field":true}`: "bogus_field",
		`not json at all`:                                          "bad job spec",
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, wantFragment) {
			t.Fatalf("body %q: %d %q (want fragment %q)", body, resp.StatusCode, apiErr.Error, wantFragment)
		}
	}
}

func TestHTTPCancel(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Backend: "checkerboard", Rows: 64, Cols: 64, Sweeps: 500000,
		Temperature: 2.3, Seed: 1, SampleInterval: 1000}
	st, _ := postJob(t, ts, spec)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.State != StateCanceled {
		t.Fatalf("cancel: %d %+v", resp.StatusCode, got)
	}
	// The result endpoint reports the cancellation as a conflict.
	if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s/result", ts.URL, st.ID), nil); code != http.StatusConflict {
		t.Fatalf("result of canceled job returned %d, want 409", code)
	}
}

// TestHTTPExpiredVsUnknown pins the wire-level error taxonomy: a job ID the
// server issued and then evicted answers 410 Gone with "expired" in the
// body; an ID it never issued answers 404.
func TestHTTPExpiredVsUnknown(t *testing.T) {
	srv, _ := New(Config{Workers: 1, JobHistory: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var first string
	for seed := uint64(1); seed <= 3; seed++ {
		st, code := postJob(t, ts, JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 2, Seed: seed})
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit returned %d", code)
		}
		if first == "" {
			first = st.ID
		}
		j, err := srv.Get(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	for _, path := range []string{"/v1/jobs/" + first, "/v1/jobs/" + first + "/result", "/v1/jobs/" + first + "/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone || !strings.Contains(apiErr.Error, "expired") {
			t.Fatalf("GET %s for evicted job: %d %q, want 410 with \"expired\"", path, resp.StatusCode, apiErr.Error)
		}
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Fatalf("never-issued ID returned %d, want 404", code)
	}
}

// TestHTTPClientQuota checks the HTTP quota surface: the X-Client-ID header
// keys the quota, an over-budget submission answers 429, and a different
// header value is a different budget.
func TestHTTPClientQuota(t *testing.T) {
	srv, _ := New(Config{Workers: 1, MaxQueuedPerClient: 1})
	defer srv.Close()
	release := make(chan struct{})
	srv.testHookRun = func(*Job) { <-release }
	defer close(release)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	submit := func(client string, seed uint64) int {
		blob, err := json.Marshal(JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && !strings.Contains(apiErr.Error, "quota") {
			t.Fatalf("429 body should name the quota, got %q", apiErr.Error)
		}
		return resp.StatusCode
	}
	if code := submit("alice", 1); code != http.StatusAccepted {
		t.Fatalf("first submission returned %d", code)
	}
	if code := submit("alice", 2); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission returned %d, want 429", code)
	}
	if code := submit("bob", 3); code != http.StatusAccepted {
		t.Fatalf("bob throttled by alice's quota: %d", code)
	}
}

// TestHTTPMetrics checks the Prometheus exposition: text format, HELP/TYPE
// lines, and values agreeing with the /v1/stats snapshot they mirror.
func TestHTTPMetrics(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, _ := postJob(t, ts, JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 2, Seed: 1})
	j, err := srv.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := new(strings.Builder)
	if _, err := io.Copy(body, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{
		"# TYPE isingd_jobs_submitted_total counter",
		"# TYPE isingd_cache_bytes gauge",
		"isingd_jobs_submitted_total 1",
		"isingd_jobs_completed_total 1",
		"isingd_workers 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
	stats := srv.Stats()
	if !strings.Contains(text, fmt.Sprintf("isingd_sweeps_run_total %d", stats.SweepsRun)) {
		t.Fatalf("metrics disagree with stats (sweeps_run %d):\n%s", stats.SweepsRun, text)
	}
}

// TestTerminalCountersVisibleAtDone: a client that waits on a job's Done
// channel and then reads the counters must find the job counted and its run
// observed, for a completed and for a failed run. The server's clock stalls
// every read made after the watched job's Done has closed, so a count or
// observation made after the close (the order that once made
// TestHTTPMetricsHistograms read isingd_run_seconds_count 0 about once in a
// few hundred runs) is missed every time instead of rarely.
func TestTerminalCountersVisibleAtDone(t *testing.T) {
	var watched atomic.Pointer[Job]
	stallAfterDone := func() time.Time {
		if j := watched.Load(); j != nil {
			select {
			case <-j.Done():
				time.Sleep(200 * time.Millisecond)
			default:
			}
		}
		return time.Now()
	}
	fs := &faultFS{}
	srv, _ := New(Config{Workers: 1, Now: stallAfterDone, CheckpointDir: t.TempDir(), CheckpointFS: fs})
	defer srv.Close()
	srv.testHookRun = func(j *Job) {
		watched.Store(j)
		if j.Spec().Seed == 2 {
			fs.failWrite.Store(true) // the run fails at its first periodic checkpoint
		}
	}
	for _, c := range []struct {
		spec                 JobSpec
		state                JobState
		completed, failed, n int64
	}{
		{tinySpec(1), StateDone, 1, 0, 1},
		{JobSpec{Backend: "checkerboard", Rows: 8, Sweeps: 300, Seed: 2, CheckpointInterval: 64}, StateFailed, 1, 1, 2},
	} {
		j, err := srv.Submit(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		// Read the counters directly: Stats would itself stall on the clock.
		completed, failed, runs := srv.jobsCompleted.Load(), srv.jobsFailed.Load(), srv.runH.Count()
		watched.Store(nil)
		if got := j.Status().State; got != c.state {
			t.Fatalf("job %s finished %s, want %s", j.ID(), got, c.state)
		}
		if completed != c.completed || failed != c.failed || runs != c.n {
			t.Fatalf("after job %s closed Done: jobs_completed=%d jobs_failed=%d run_seconds_count=%d, want %d %d %d",
				j.ID(), completed, failed, runs, c.completed, c.failed, c.n)
		}
	}
}

// TestServingLogNamesKernels: isingd's serving log line carries the same
// kernel variants as isingd_build_info.
func TestServingLogNamesKernels(t *testing.T) {
	var buf bytes.Buffer
	slog.New(slog.NewTextHandler(&buf, nil)).Info("serving", KernelAttrs()...)
	want := fmt.Sprintf("rng_avx2=%t rng_avx512=%t", rng.HasAVX2(), rng.HasAVX512())
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("serving line %q lacks %q", buf.String(), want)
	}
}

// TestHTTPMetricsHistograms checks the histogram families, build-info gauge
// and HEAD support of /metrics: after one job runs, every stage histogram is
// declared with its bucket/sum/count series, the build labels surface, and a
// HEAD probe answers the exact Content-Length with no body.
func TestHTTPMetricsHistograms(t *testing.T) {
	// A fake clock freezes isingd_uptime_seconds, so the HEAD render below
	// is byte-identical to the GET it must match.
	clock := newFakeClock()
	srv, _ := New(Config{Workers: 1, Version: "v9-test", Now: clock.Now})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, _ := postJob(t, ts, JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 2, Seed: 1})
	j, err := srv.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, want := range []string{
		"# TYPE isingd_queue_wait_seconds histogram",
		"# TYPE isingd_run_seconds histogram",
		"# TYPE isingd_checkpoint_write_seconds histogram",
		"# TYPE isingd_stream_write_seconds histogram",
		`isingd_queue_wait_seconds_bucket{le="+Inf"} 1`,
		"isingd_queue_wait_seconds_count 1",
		"isingd_run_seconds_count 1",
		`isingd_build_info{version="v9-test",goversion="`,
		fmt.Sprintf(`,rng_avx2="%t",rng_avx512="%t"} 1`, rng.HasAVX2(), rng.HasAVX512()),
		"# TYPE isingd_uptime_seconds gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}

	// HEAD answers the headers a scraper sizes the scrape by — the GET
	// body's exact length — without shipping the body.
	head, err := http.Head(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	headBody, err := io.ReadAll(head.Body)
	head.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if head.StatusCode != http.StatusOK || len(headBody) != 0 {
		t.Fatalf("HEAD /metrics: status %d, %d body bytes", head.StatusCode, len(headBody))
	}
	if cl := head.Header.Get("Content-Length"); cl != fmt.Sprint(len(blob)) {
		t.Fatalf("HEAD Content-Length %s, GET body is %d bytes", cl, len(blob))
	}
}

// TestHTTPTrace checks the trace endpoint's wire behavior: a completed job
// answers its full timeline, a never-issued ID is 404, and an evicted ID is
// 410 — the same taxonomy as every other per-job endpoint.
func TestHTTPTrace(t *testing.T) {
	srv, _ := New(Config{Workers: 1, JobHistory: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, _ := postJob(t, ts, JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 2, Seed: 1})
	j, err := srv.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	var tr JobTrace
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("trace returned %d", code)
	}
	if tr.ID != st.ID || tr.State != StateDone {
		t.Fatalf("trace header: %+v", tr)
	}
	events := make([]string, len(tr.Events))
	for i, ev := range tr.Events {
		events[i] = ev.Event
	}
	want := []string{EventSubmitted, EventQueued, EventAdmitted, EventRunning, EventCompleted}
	if strings.Join(events, ",") != strings.Join(want, ",") {
		t.Fatalf("timeline %v, want %v", events, want)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/job-999999/trace", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job trace returned %d, want 404", code)
	}
	// Evict the first job by running two more through the history bound.
	for seed := uint64(2); seed <= 3; seed++ {
		more, _ := postJob(t, ts, JobSpec{Backend: "checkerboard", Rows: 4, Sweeps: 2, Seed: seed})
		mj, err := srv.Get(more.ID)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, mj)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/trace", nil); code != http.StatusGone {
		t.Fatalf("evicted job trace returned %d, want 410", code)
	}
}

// TestRequestLog checks the HTTP middleware: one structured line per request
// carrying method, path, status and the client identity header.
func TestRequestLog(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(RequestLog(logger, srv.Handler()))
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/job-999999", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	line := buf.String()
	for _, want := range []string{"method=GET", "path=/v1/jobs/job-999999", "status=404", "client=alice"} {
		if !strings.Contains(line, want) {
			t.Fatalf("request log missing %q:\n%s", want, line)
		}
	}
}

// TestHTTPSubmitBodyBounds: a submission is one JSON object of at most
// 1 MiB — an oversize body answers 413, trailing garbage 400, and trailing
// whitespace is still a valid submission.
func TestHTTPSubmitBodyBounds(t *testing.T) {
	srv, _ := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Long enough that the accepted job is still queued or running when
	// its status is answered (202, not a done 200); Close cancels it.
	spec := `{"backend":"checkerboard","rows":64,"cols":64,"sweeps":500000,"temperature":2.3,"seed":5,"sample_interval":1000}`
	oversize := `{"backend":"checkerboard","rows":8,"cols":8,"sweeps":1,"client":"` +
		strings.Repeat("x", maxSubmitBytes) + `"}`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"oversize", oversize, http.StatusRequestEntityTooLarge},
		{"trailing garbage", spec + ` {"rows":16}`, http.StatusBadRequest},
		{"trailing newline", spec + "\n", http.StatusAccepted},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, msg)
		}
	}
}
