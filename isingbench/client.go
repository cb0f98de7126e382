package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"tpuising/internal/service"
)

// jobRecord is everything the load process saw of one job.
type jobRecord struct {
	client int
	plan   plannedJob
	// original is the record a resubmission repeats (nil otherwise).
	original *jobRecord

	id     string
	cached bool
	err    error // the first failed call (transport error or HTTP status)

	start       time.Time     // the POST is about to be sent
	end         time.Time     // the result body has been received
	firstSample time.Duration // start to the first NDJSON line (0 = none)
	lines       int           // NDJSON sample lines received
	result      json.RawMessage

	trace *service.JobTrace // the daemon's timeline (traced runs only)
}

func (r *jobRecord) latency() time.Duration { return r.end.Sub(r.start) }

// loadGen runs closed-loop clients against one daemon. With a tracer it also
// records client spans and fetches each job's daemon trace.
type loadGen struct {
	d  *daemon
	hc *http.Client
	tr *tracer
}

// newHTTPClient returns the keep-alive client every benchmark request uses.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		},
	}
}

// drive runs one goroutine per generator, each submitting its next job only
// after the previous result arrived, until more(jobs done by this client)
// says stop. It returns every record, per client, in submission order.
func (dr *loadGen) drive(gens []*generator, more func(done int) bool) [][]*jobRecord {
	out := make([][]*jobRecord, len(gens))
	var wg sync.WaitGroup
	for c, g := range gens {
		wg.Add(1)
		go func(c int, g *generator) {
			defer wg.Done()
			var recs []*jobRecord
			for more(len(recs)) {
				plan := g.next()
				rec := dr.runJob(c, plan)
				if plan.original >= 0 {
					rec.original = recs[plan.original]
				}
				recs = append(recs, rec)
			}
			out[c] = recs
		}(c, g)
	}
	wg.Wait()
	return out
}

// runJob submits one job and collects its stream and result: POST, then the
// NDJSON stream to its end, then the result. A cache hit answers the POST
// with the result inline and needs neither.
func (dr *loadGen) runJob(client int, plan plannedJob) *jobRecord {
	rec := &jobRecord{client: client, plan: plan}
	body, err := json.Marshal(plan.spec)
	if err != nil {
		rec.err = err
		return rec
	}
	root := dr.tr.begin("job", 0, "")
	rec.start = time.Now()
	dr.submit(rec, body, root)
	if rec.err == nil && !rec.cached {
		dr.stream(rec, root)
	}
	if rec.err == nil && !rec.cached {
		dr.fetchResult(rec, root)
	}
	rec.end = time.Now()
	dr.tr.end(root, rec.id)
	if dr.tr != nil && rec.err == nil {
		dr.fetchTrace(rec, root)
	}
	return rec
}

// submitted is the part of a POST /v1/jobs answer the benchmark reads.
type submitted struct {
	ID     string          `json:"id"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

func (dr *loadGen) submit(rec *jobRecord, body []byte, root int) {
	id := dr.tr.begin("http.submit", root, "")
	defer func() { dr.tr.end(id, rec.id) }()
	resp, err := dr.hc.Post(dr.d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = fmt.Errorf("POST /v1/jobs: %w", err)
		return
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		rec.err = fmt.Errorf("POST /v1/jobs: %w", err)
		return
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		rec.err = fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
		return
	}
	var st submitted
	if err := json.Unmarshal(blob, &st); err != nil {
		rec.err = fmt.Errorf("POST /v1/jobs: %w", err)
		return
	}
	rec.id = st.ID
	if resp.StatusCode == http.StatusOK {
		if !st.Cached || len(st.Result) == 0 {
			rec.err = errors.New("POST /v1/jobs answered 200 without a cached result")
			return
		}
		rec.cached = true
		rec.result = st.Result
	}
}

// stream reads the job's NDJSON stream to its end, timing the first line.
func (dr *loadGen) stream(rec *jobRecord, root int) {
	id := dr.tr.begin("http.stream", root, rec.id)
	defer dr.tr.end(id, "")
	resp, err := dr.hc.Get(dr.d.base + "/v1/jobs/" + rec.id + "/stream")
	if err != nil {
		rec.err = fmt.Errorf("GET stream: %w", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("GET stream: status %d", resp.StatusCode)
		return
	}
	tag := []byte(`"job":"` + rec.id + `"`)
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if rec.lines == 0 {
				rec.firstSample = time.Since(rec.start)
			}
			rec.lines++
			if !bytes.Contains(line, tag) {
				rec.err = fmt.Errorf("stream line %d does not belong to job %s: %s", rec.lines, rec.id, line)
				return
			}
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			rec.err = fmt.Errorf("GET stream: %w", err)
			return
		}
	}
}

func (dr *loadGen) fetchResult(rec *jobRecord, root int) {
	id := dr.tr.begin("http.result", root, rec.id)
	defer dr.tr.end(id, "")
	resp, err := dr.hc.Get(dr.d.base + "/v1/jobs/" + rec.id + "/result")
	if err != nil {
		rec.err = fmt.Errorf("GET result: %w", err)
		return
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		rec.err = fmt.Errorf("GET result: %w", err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("GET result: status %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
		return
	}
	rec.result = blob
}

// fetchTrace reads the daemon's lifecycle timeline of the job. It runs after
// the job's latency is taken, so it costs throughput but not latency.
func (dr *loadGen) fetchTrace(rec *jobRecord, root int) {
	id := dr.tr.begin("http.trace", root, rec.id)
	defer dr.tr.end(id, "")
	resp, err := dr.hc.Get(dr.d.base + "/v1/jobs/" + rec.id + "/trace")
	if err != nil {
		rec.err = fmt.Errorf("GET trace: %w", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rec.err = fmt.Errorf("GET trace: status %d", resp.StatusCode)
		return
	}
	var t service.JobTrace
	if err := json.NewDecoder(resp.Body).Decode(&t); err != nil {
		rec.err = fmt.Errorf("GET trace: %w", err)
		return
	}
	rec.trace = &t
}
