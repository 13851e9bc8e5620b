package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"chaos"
	"chaos/internal/obs"
)

// TestRetryAfterSecondsNeverZero pins the admission-control contract
// the HTTP layer relies on: Retry-After is never 0 (a zero tells
// clients to retry immediately, defeating the backoff) and never
// unbounded.
func TestRetryAfterSecondsNeverZero(t *testing.T) {
	cases := []struct {
		depth, workers, want int
	}{
		{0, 4, 1},     // empty backlog still asks for a beat of patience
		{3, 4, 1},     // sub-worker backlog rounds up to the floor
		{8, 4, 2},     // coarse backlog-per-worker estimate
		{1000, 4, 60}, // capped so clients never park for minutes
		{5, 0, 5},     // worker count defensively floored at 1
	}
	for _, c := range cases {
		e := &QueueFullError{Depth: c.depth, Max: c.depth, Workers: c.workers}
		got := e.RetryAfterSeconds()
		if got != c.want {
			t.Errorf("RetryAfterSeconds(depth=%d, workers=%d) = %d, want %d", c.depth, c.workers, got, c.want)
		}
		if got < 1 {
			t.Errorf("RetryAfterSeconds(depth=%d, workers=%d) = %d < 1", c.depth, c.workers, got)
		}
	}
}

// TestPromLabelEscaping: label values escape exactly the three
// metacharacters the exposition format defines — backslash, double
// quote, newline — and pass everything else through verbatim (where %q
// would have mangled tabs and non-ASCII runes into Go escapes).
func TestPromLabelEscaping(t *testing.T) {
	var p promWriter
	p.sample("m", [][2]string{{"l", "a\"b\\c\nd\te"}}, 1)
	want := "m{l=\"a\\\"b\\\\c\\nd\te\"} 1\n"
	if got := p.b.String(); got != want {
		t.Errorf("escaped sample:\n got %q\nwant %q", got, want)
	}
}

// TestHistogramExposition checks the histogram render against the
// Prometheus histogram contract: cumulative nondecreasing buckets, the
// +Inf bucket equal to _count, and a faithful _sum.
func TestHistogramExposition(t *testing.T) {
	h := newHistogram(latencyBuckets)
	h.observe(0.003) // le=0.005 bucket
	h.observe(0.003)
	h.observe(100) // past every bound: +Inf only
	var p promWriter
	p.histogram("x", [][2]string{{"k", "v"}}, h)
	out := p.b.String()

	get := func(line string) float64 {
		t.Helper()
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, line+" ") {
				v, err := strconv.ParseFloat(strings.TrimPrefix(l, line+" "), 64)
				if err != nil {
					t.Fatalf("parsing %q: %v", l, err)
				}
				return v
			}
		}
		t.Fatalf("no sample %q in:\n%s", line, out)
		return 0
	}
	if v := get(`x_bucket{k="v",le="0.005"}`); v != 2 {
		t.Errorf("le=0.005 bucket = %g, want 2", v)
	}
	if v := get(`x_bucket{k="v",le="60"}`); v != 2 {
		t.Errorf("le=60 bucket = %g, want 2 (the 100s observation is +Inf-only)", v)
	}
	if v := get(`x_bucket{k="v",le="+Inf"}`); v != 3 {
		t.Errorf("+Inf bucket = %g, want 3", v)
	}
	if v := get(`x_count{k="v"}`); v != 3 {
		t.Errorf("_count = %g, want 3", v)
	}
	if v := get(`x_sum{k="v"}`); v < 100 || v > 100.1 {
		t.Errorf("_sum = %g, want ~100.006", v)
	}
	// Cumulative buckets never decrease.
	prev := -1.0
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "x_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(l[strings.LastIndex(l, " ")+1:], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", l, err)
		}
		if v < prev {
			t.Fatalf("bucket series decreases at %q:\n%s", l, out)
		}
		prev = v
	}
}

// TestMetricsRenderingIsStable renders /metrics repeatedly over one
// unchanging state that holds every algorithm and every route: each
// rendering is byte-identical to the first, and the algorithm and route
// series come in sorted order. Both label sets are map keys, so a
// rendering that ranges over either map unsorted fails here. The workers
// never start (open, not Open), so the submitted jobs stay queued and
// nothing moves between renderings.
func TestMetricsRenderingIsStable(t *testing.T) {
	svc, err := open(Config{Workers: 1, BaseOptions: labOptions})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(context.Background())
	if _, err := svc.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 6, Weighted: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, alg := range chaos.Algorithms() {
		if _, err := svc.Submit("g", alg, chaos.Options{}); err != nil {
			t.Fatalf("submit %s: %v", alg, err)
		}
	}
	first := svc.metricsText()
	for i := 0; i < 10; i++ {
		if svc.metricsText() != first {
			t.Errorf("rendering %d differs from the first", i+2)
			break
		}
	}
	for _, prefix := range []string{
		`chaos_jobs_submitted_total{algorithm="`,
		`chaos_http_request_duration_seconds_count{route="`,
	} {
		var labels []string
		for _, line := range strings.Split(first, "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				label, _, _ := strings.Cut(rest, `"`)
				labels = append(labels, label)
			}
		}
		if len(labels) < len(chaos.Algorithms()) || !slices.IsSorted(labels) {
			t.Errorf("%s... series %q, want at least %d in sorted order", prefix, labels, len(chaos.Algorithms()))
		}
	}
}

// TestMetricsHistogramsPreSeededAndFed scrapes /metrics on a fresh
// service (every route and engine series must exist at zero before any
// traffic) and again after one sim job (queue-wait and sim wall-time
// histograms must have counted it; the HTTP histogram must have
// counted the scrape).
func TestMetricsHistogramsPreSeededAndFed(t *testing.T) {
	svc := newTestService(t, 1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	scrape := func() string {
		t.Helper()
		resp, err := client.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	first := scrape()
	// Every route in the route table — not a hand-picked sample — must
	// have its series alive at zero from the first scrape, so a newly
	// added endpoint (e.g. the trace routes) can never ship with an
	// absent series (absent ≠ zero to alerting rules).
	wanted := []string{
		`chaos_http_request_duration_seconds_count{route="unmatched"} 0`,
		`chaos_job_queue_wait_seconds_count 0`,
		`chaos_job_wall_seconds_count{engine="sim"} 0`,
		`chaos_job_wall_seconds_count{engine="native"} 0`,
		"\nchaos_update_slab_bytes 0\n",
	}
	for _, route := range svc.routePatterns() {
		wanted = append(wanted,
			`chaos_http_request_duration_seconds_count{route="`+route+`"} 0`)
	}
	for _, want := range wanted {
		if !strings.Contains(first, want) {
			t.Errorf("fresh scrape lacks %q", want)
		}
	}

	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "g", Type: "rmat", Scale: 7, Seed: 42}, nil); code != http.StatusCreated {
		t.Fatalf("register graph: %d %s", code, body)
	}
	var jv JobView
	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "g", Algorithm: "PR", Options: chaos.Options{}}, &jv); code != http.StatusAccepted {
		t.Fatalf("submit job: %d %s", code, body)
	}
	if done := pollJob(t, client, ts.URL, jv.ID); done.State != JobDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}

	second := scrape()
	for _, want := range []string{
		`chaos_job_queue_wait_seconds_count 1`,
		`chaos_job_wall_seconds_count{engine="sim"} 1`,
		`chaos_job_wall_seconds_count{engine="native"} 0`,
	} {
		if !strings.Contains(second, want) {
			t.Errorf("post-job scrape lacks %q", want)
		}
	}
	// The first scrape itself was counted by the time of the second.
	if !strings.Contains(second, `chaos_http_request_duration_seconds_count{route="GET /metrics"} 1`) {
		t.Errorf("scrape did not count the previous /metrics request:\n%s", second)
	}
}

// TestJobTraceEndpoint runs a native job and reads its end-to-end trace
// back through the API: the flat engine timeline carries per-machine
// scatter and gather spans, the span tree roots in a single trace with
// the lifecycle chain under it, the chrome format is valid trace_event
// JSON, and cache-hit jobs serve a lifecycle tree with the engine tier
// marked absent (nothing ran).
func TestJobTraceEndpoint(t *testing.T) {
	svc := newTestService(t, 1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "g", Type: "rmat", Scale: 7, Seed: 42}, nil); code != http.StatusCreated {
		t.Fatalf("register graph: %d %s", code, body)
	}
	// Stealing disabled so span attribution is deterministic: on a
	// graph this small the first machine scheduled can otherwise steal
	// every partition before the other goroutine even starts, and the
	// per-machine assertions below would flake.
	req := jobRequest{Graph: "g", Algorithm: "PR",
		Options: chaos.Options{Engine: "native", Machines: 2, DisableStealing: true, Seed: 3}}
	var jv JobView
	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs", req, &jv); code != http.StatusAccepted {
		t.Fatalf("submit job: %d %s", code, body)
	}
	if done := pollJob(t, client, ts.URL, jv.ID); done.State != JobDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}

	var tr traceResponse
	if code, body := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/"+jv.ID+"/trace", nil, &tr); code != http.StatusOK {
		t.Fatalf("GET trace: %d %s", code, body)
	}
	if tr.ID != jv.ID || tr.Engine != chaos.EngineNative || tr.State != JobDone {
		t.Fatalf("trace header wrong: %+v", tr)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace holds no spans")
	}
	scatter, gather := map[int]bool{}, map[int]bool{}
	for _, s := range tr.Spans {
		switch s.Phase {
		case chaos.PhaseScatter:
			scatter[s.Machine] = true
		case chaos.PhaseGather:
			gather[s.Machine] = true
		}
	}
	if len(scatter) != 2 || len(gather) != 2 {
		t.Errorf("scatter spans from %d machines, gather from %d, want 2 each", len(scatter), len(gather))
	}

	// The tree: one root (the submitting request), no orphans, and the
	// lifecycle chain — admitted, queued, run, done — under it, with the
	// engine spans parented under the run span.
	if tr.TraceID == "" || tr.TraceID != jv.TraceID {
		t.Errorf("trace id %q, job view carried %q", tr.TraceID, jv.TraceID)
	}
	if len(tr.Tree) != 1 {
		t.Fatalf("trace has %d roots, want 1", len(tr.Tree))
	}
	if tr.Orphans != 0 {
		t.Errorf("trace has %d orphans, want 0", tr.Orphans)
	}
	names := map[string]int{}
	engineUnderRun := 0
	var walkNames func(n *obs.Node, underRun bool)
	walkNames = func(n *obs.Node, underRun bool) {
		names[n.Span.Name]++
		if n.Span.Kind == "engine" && underRun {
			engineUnderRun++
		}
		for _, c := range n.Children {
			walkNames(c, underRun || n.Span.Name == "run")
		}
	}
	for _, r := range tr.Tree {
		walkNames(r, false)
	}
	for _, want := range []string{"admitted", "queued", "run", "done"} {
		if names[want] == 0 {
			t.Errorf("lifecycle span %q missing from tree (have %v)", want, names)
		}
	}
	if engineUnderRun != len(tr.Spans) {
		t.Errorf("%d engine spans nest under the run span, want all %d", engineUnderRun, len(tr.Spans))
	}

	// Chrome format: valid trace_event JSON with at least one event per
	// retained span.
	resp, err := client.Get(ts.URL + "/v1/jobs/" + jv.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chrome trace: %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(tr.Spans) {
		t.Errorf("chrome trace holds %d events for %d spans", len(doc.TraceEvents), len(tr.Spans))
	}

	// The identical resubmission is answered from the result cache:
	// nothing ran, so the lifecycle tree is served with the engine tier
	// marked absent-with-reason.
	var hit JobView
	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs", req, &hit); code != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", code, body)
	}
	if !hit.CacheHit {
		t.Fatalf("resubmission was not a cache hit: %+v", hit)
	}
	var cached traceResponse
	if code, body := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/"+hit.ID+"/trace", nil, &cached); code != http.StatusOK {
		t.Fatalf("cache-hit trace: %d %s, want 200 with a lifecycle tree", code, body)
	}
	if len(cached.Tree) != 1 || len(cached.Spans) != 0 || cached.EngineAbsent == "" {
		t.Fatalf("cache-hit trace should be one lifecycle tree with the engine tier absent: %+v", cached)
	}
	// The same tree is addressable by trace id.
	var byTrace traceResponse
	if code, body := doJSON(t, client, http.MethodGet, ts.URL+"/v1/traces/"+tr.TraceID, nil, &byTrace); code != http.StatusOK {
		t.Fatalf("GET /v1/traces/{id}: %d %s", code, body)
	}
	if byTrace.ID != jv.ID || byTrace.TraceID != tr.TraceID {
		t.Fatalf("trace lookup resolved %+v, want job %s", byTrace, jv.ID)
	}
	if code, _ := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/j999/trace", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown-job trace: %d, want 404", code)
	}
	if code, _ := doJSON(t, client, http.MethodGet, ts.URL+"/v1/traces/deadbeef", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace id: %d, want 404", code)
	}
}
