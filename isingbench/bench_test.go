package main

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"tpuising/internal/service/encode"
)

// TestSeedGivesSameSpecSequence: the daemon only sees generated specs, so a
// seed must always produce the same sequence, and another seed another one.
func TestSeedGivesSameSpecSequence(t *testing.T) {
	for _, name := range workloadNames {
		w := workloads[name]
		draw := func(seed uint64) []plannedJob {
			g := newGenerator(w, seed, 0)
			out := make([]plannedJob, 500)
			for i := range out {
				out[i] = g.next()
			}
			return out
		}
		a, b, c := draw(7), draw(7), draw(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
		seeds := map[uint64]bool{}
		for i, j := range a {
			if j.kind == kindResubmit {
				if j.original < 0 || i-j.original > 2*resubmitWindow || a[j.original].kind == kindResubmit {
					t.Fatalf("%s: job %d resubmits %d, not a recent fresh job", name, i, j.original)
				}
				if !reflect.DeepEqual(j.spec, a[j.original].spec) {
					t.Fatalf("%s: resubmission %d does not repeat its original's spec", name, i)
				}
				continue
			}
			if seeds[j.spec.Seed] {
				t.Fatalf("%s: job %d reuses seed %d", name, i, j.spec.Seed)
			}
			seeds[j.spec.Seed] = true
		}
	}
}

// TestServiceMixProportions: every deck of ten service-mix jobs holds seven
// single chains, one batch, one ladder and one resubmission (the very first
// deck excepted: a resubmission with nothing to repeat yet becomes a chain).
func TestServiceMixProportions(t *testing.T) {
	g := newGenerator(workloads["service-mix"], 1, 0)
	for deck := 0; deck < 200; deck++ {
		counts := map[string]int{}
		for i := 0; i < 10; i++ {
			counts[g.next().kind]++
		}
		if deck == 0 {
			continue
		}
		if counts[kindSingle] != 7 || counts[kindLanes] != 1 || counts[kindLadder] != 1 || counts[kindResubmit] != 1 {
			t.Fatalf("deck %d holds %v", deck, counts)
		}
	}
}

func TestQuantile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4}, 0.9, 4},
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{ten, 0.9, 9.1},
		{ten, 0, 1},
		{ten, 1, 10},
		{[]float64{10, 1, 7, 3}, 0.5, 5}, // quantileOf sorts a copy
	} {
		if got := quantileOf(tc.xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", tc.xs, tc.q, got, tc.want)
		}
	}
}

// TestLatencyQuantilesNeedHundredJobs: below 100 samples fewer than ten jobs
// lie beyond p90, so the run must fail rather than report it.
func TestLatencyQuantilesNeedHundredJobs(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, _, err := latencyQuantiles(xs); err == nil || !strings.Contains(err.Error(), "at least 100") {
		t.Fatalf("99 jobs: err = %v, want the 100-job refusal", err)
	}
	xs = append(xs, 100)
	p50, p90, err := latencyQuantiles(xs)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 50.5 || math.Abs(p90-90.1) > 1e-9 {
		t.Fatalf("p50, p90 = %g, %g; want 50.5, 90.1", p50, p90)
	}
}

// phasedWindow is a checked chain-2048 window of n back-to-back jobs on a
// host that runs them in fast (100 ms) or slow (200 ms) stretches of ten
// jobs: slowTens of every ten stretches are slow.
func phasedWindow(n, slowTens int) *window {
	g := newGenerator(workloads["chain-2048"], 1, 0)
	t0 := time.Unix(1000, 0)
	win := &window{t0: t0, deadline: t0.Add(time.Hour), recs: [][]*jobRecord{nil},
		verdict: verdict{ok: map[*jobRecord]bool{}}}
	at := t0
	for i := 0; i < n; i++ {
		took := 100 * time.Millisecond
		if (i/10)%10 < slowTens {
			took = 200 * time.Millisecond
		}
		rec := &jobRecord{plan: g.next(), start: at, end: at.Add(took), firstSample: took / 2}
		at = rec.end
		win.recs[0] = append(win.recs[0], rec)
		win.verdict.ok[rec] = true
		win.verdict.attempted++
	}
	return win
}

// TestFastPhaseMetricsIgnoreSlowShare: on a host that alternates between two
// speeds the whole-window median jumps with the share of slow time, while
// the fast-phase metrics read the fast speed as long as ten rounds ran fast.
func TestFastPhaseMetricsIgnoreSlowShare(t *testing.T) {
	perJob := 2048 * 2048 * 4 / 100e6 // flips per ns of a 100 ms job
	var p50s []float64
	for _, slowTens := range []int{2, 4, 6, 8, 9} {
		e, err := endToEndOf(phasedWindow(200, slowTens), 1)
		if err != nil {
			t.Fatal(err)
		}
		if e.jobFast != 100 || e.firstFast != 50 || e.jobsPerS != 10 || math.Abs(e.flipsPerNs-perJob) > 1e-12 {
			t.Errorf("%d0%% slow: fast %g ms, first %g ms, %g jobs/s, %g flips/ns; want 100, 50, 10, %g",
				slowTens, e.jobFast, e.firstFast, e.jobsPerS, e.flipsPerNs, perJob)
		}
		if e.rounds != 200 || e.jobs != 200 {
			t.Errorf("%d rounds of %d jobs, want 200 of 200", e.rounds, e.jobs)
		}
		p50s = append(p50s, e.p50)
	}
	if p50s[0] != 100 || p50s[4] != 200 {
		t.Errorf("whole-window p50 over slow shares 20..90%%: %v, want it to jump from 100 to 200", p50s)
	}
	if e, _ := endToEndOf(phasedWindow(200, 10), 1); e.jobFast != 200 {
		t.Errorf("an all-slow window reads %g ms, want 200", e.jobFast)
	}
}

// TestFastPhaseNeedsHundredRounds: below 100 rounds fewer than ten lie
// beyond the fast quantile, so the run must fail rather than report it.
func TestFastPhaseNeedsHundredRounds(t *testing.T) {
	if _, err := endToEndOf(phasedWindow(150, 0), 2); err == nil || !strings.Contains(err.Error(), "75 rounds") {
		t.Fatalf("150 jobs in rounds of 2: err = %v, want the 100-round refusal", err)
	}
	if _, err := endToEndOf(phasedWindow(200, 0), 2); err != nil {
		t.Fatalf("200 jobs in rounds of 2: %v", err)
	}
}

// TestFlipAccounting: rows x cols x sweeps x lanes per computed job, nothing
// for a cache hit; the daemon's sweeps_run and checkpoint counters follow
// the same shapes.
func TestFlipAccounting(t *testing.T) {
	first := func(name string, kind string) plannedJob {
		g := newGenerator(workloads[name], 3, 0)
		for {
			if j := g.next(); j.kind == kind {
				return j
			}
		}
	}
	for _, tc := range []struct {
		job          plannedJob
		flips        float64
		sweeps       int64
		writes       int64
		lines, lanes int
	}{
		{first("chain-2048", kindSingle), 2048 * 2048 * 4, 4, 2, 2, 1},
		{first("lanes-pod", kindLanes), 128 * 128 * 10 * 64, 10 * 64, 1, 2 * 64, 64},
		{first("service-mix", kindSingle), 64 * 64 * 20, 20, 1, 4, 1},
		{first("service-mix", kindLanes), 64 * 64 * 20 * 8, 20 * 8, 1, 4 * 8, 8},
		{first("service-mix", kindLadder), 64 * 64 * 20 * 4, 20 * 4, 1, 4, 4},
	} {
		rec := &jobRecord{plan: tc.job}
		if got := flips(tc.job.norm, false); got != tc.flips {
			t.Errorf("%s: flips %g, want %g", tc.job.kind, got, tc.flips)
		}
		if got := sweepsOf(rec); got != tc.sweeps {
			t.Errorf("%s: sweeps %d, want %d", tc.job.kind, got, tc.sweeps)
		}
		if got := checkpointWritesOf(rec); got != tc.writes {
			t.Errorf("%s: checkpoint writes %d, want %d", tc.job.kind, got, tc.writes)
		}
		if sh := shapeOf(tc.job.norm); sh.lines != tc.lines || sh.lanes != tc.lanes {
			t.Errorf("%s: shape %+v, want %d lines over %d lanes", tc.job.kind, sh, tc.lines, tc.lanes)
		}
		rec.cached = true
		if flips(tc.job.norm, true) != 0 || sweepsOf(rec) != 0 || checkpointWritesOf(rec) != 0 {
			t.Errorf("%s: a cache hit must count no flips, sweeps or checkpoint writes", tc.job.kind)
		}
	}
}

// fakeWindow builds a window of service-mix jobs whose results come from the
// in-process reference, so every record passes unless a test breaks it.
func fakeWindow(t *testing.T, n int) *window {
	t.Helper()
	w := workloads["service-mix"]
	g := newGenerator(w, 5, 0)
	t0 := time.Unix(1000, 0)
	win := &window{t0: t0, deadline: t0.Add(time.Hour), recs: [][]*jobRecord{nil}}
	for i := 0; i < n; i++ {
		p := g.next()
		rec := &jobRecord{plan: p, id: "job", start: t0.Add(time.Duration(i) * time.Millisecond)}
		rec.end = rec.start.Add(time.Millisecond)
		if p.original >= 0 {
			rec.original = win.recs[0][p.original]
			rec.cached = true
			rec.result = rec.original.result
		} else {
			ref, err := reference(p.norm)
			if err != nil {
				t.Fatal(err)
			}
			if rec.result, err = json.Marshal(ref); err != nil {
				t.Fatal(err)
			}
			rec.lines = shapeOf(p.norm).lines
		}
		win.recs[0] = append(win.recs[0], rec)
	}
	return win
}

// TestSuccessRateCounting: a refused submission (429), a server error (5xx),
// a structural mismatch and a cache hit that differs from its original each
// count as one failed job out of the submitted ones.
func TestSuccessRateCounting(t *testing.T) {
	win := fakeWindow(t, 150)
	// Break only jobs no cache hit repeats, so each breakage fails one job.
	repeated := map[*jobRecord]bool{}
	for _, rec := range win.recs[0] {
		repeated[rec.original] = true
	}
	var fresh, hits []*jobRecord
	for _, rec := range win.recs[0] {
		switch {
		case rec.cached:
			hits = append(hits, rec)
		case !repeated[rec]:
			fresh = append(fresh, rec)
		}
	}
	if len(hits) == 0 || len(fresh) < 4 {
		t.Fatalf("need fresh jobs and cache hits, got %d and %d", len(fresh), len(hits))
	}
	refused := fresh[len(fresh)-1]
	refused.err, refused.result = errTest("POST /v1/jobs: status 429"), nil
	broken := fresh[len(fresh)-2]
	broken.err, broken.result = errTest("GET result: status 503"), nil
	short := fresh[len(fresh)-3]
	short.lines--
	hit := hits[len(hits)-1]
	var r encode.Result
	if err := json.Unmarshal(hit.result, &r); err != nil {
		t.Fatal(err)
	}
	r.MeanEnergy += 1e-12
	hit.result, _ = json.Marshal(r)

	win.verdict = checkRecords(workloads["service-mix"], 5, win.recs)
	if win.verdict.failed != 4 || win.verdict.attempted != 150 {
		t.Fatalf("failed %d of %d, want 4 of 150; errors %v", win.verdict.failed, win.verdict.attempted, win.verdict.errs)
	}
	if win.verdict.deep == 0 || win.verdict.cacheHits != len(hits) {
		t.Fatalf("deep checks %d, cache hits compared %d of %d", win.verdict.deep, win.verdict.cacheHits, len(hits))
	}
	e, err := endToEndOf(win, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 146.0 / 150; e.successRate != want {
		t.Fatalf("success_rate %g, want %g", e.successRate, want)
	}
	if e.jobs != 146 {
		t.Fatalf("%d latency samples, want the 146 passing jobs", e.jobs)
	}
}

// TestDeepCheckCatchesWrongObservable: a computed job whose result differs
// from the reference in any digit fails when it is deep-checked.
func TestDeepCheckCatchesWrongObservable(t *testing.T) {
	win := fakeWindow(t, 40)
	w := workloads["service-mix"]
	w.deepEvery = 1 // deep-check every fresh job
	for _, rec := range win.recs[0] {
		if rec.cached {
			continue
		}
		var r encode.Result
		if err := json.Unmarshal(rec.result, &r); err != nil {
			t.Fatal(err)
		}
		r.Energy += 1.0 / 1024 // one flipped bond's worth, still physical
		rec.result, _ = json.Marshal(r)
		break
	}
	v := checkRecords(w, 5, win.recs)
	// The altered job fails, and so does every cache hit of it.
	if v.failed < 1 || !strings.Contains(strings.Join(v.errs, "\n"), "reference") {
		t.Fatalf("failed %d, errors %v; want the altered job caught by its reference", v.failed, v.errs)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

// TestHistQuantileDelta: stage quantiles describe only the observations
// made between two scrapes, not everything since the daemon started.
func TestHistQuantileDelta(t *testing.T) {
	const name = "isingd_checkpoint_write_seconds"
	scrape := func(b1, b2, inf int) string {
		return "# TYPE " + name + " histogram\n" +
			name + `_bucket{le="0.001"} ` + strconv.Itoa(b1) + "\n" +
			name + `_bucket{le="0.002"} ` + strconv.Itoa(b2) + "\n" +
			name + `_bucket{le="+Inf"} ` + strconv.Itoa(inf) + "\n" +
			name + "_sum 1\n" + name + "_count " + strconv.Itoa(inf) + "\n"
	}
	// Before the window: 100 fast writes. During it: 10 writes, all in the
	// (1 ms, 2 ms] bucket, so the window's median is 1.5 ms.
	got, err := histQuantileDelta(scrape(100, 100, 100), scrape(100, 110, 110), name, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("window p50 = %g ms, want 1.5", got)
	}
	if got, err := histQuantileDelta(scrape(1, 2, 3), scrape(1, 2, 3), name, 0.5); err != nil || got != 0 {
		t.Fatalf("idle window: p50 = %g, %v; want 0, nil", got, err)
	}
	if _, err := histQuantileDelta("", scrape(1, 2, 3), name, 0.5); err == nil {
		t.Fatal("a scrape without the histogram must be an error")
	}
}

// TestStealPct: steal is the eighth field of /proc/stat's cpu line, as a
// share of all ticks between two readings.
func TestStealPct(t *testing.T) {
	before := []uint64{100, 0, 10, 500, 0, 0, 0, 5, 0, 0}
	after := []uint64{160, 0, 20, 520, 0, 0, 0, 15, 0, 0}
	if got := stealPct(before, after); math.Abs(got-10) > 1e-9 {
		t.Fatalf("steal = %g%%, want 10%%", got)
	}
	if got := stealPct(nil, after); got != -1 {
		t.Fatalf("unknown steal = %g, want -1", got)
	}
	if ticks := cpuTimes(); len(ticks) < 8 {
		t.Fatalf("cpuTimes read %v from /proc/stat", ticks)
	}
}
