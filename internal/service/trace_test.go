package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chaos"
	"chaos/internal/durable"
	"chaos/internal/obs"
)

// collectNames flattens a trace tree into span names, depth-first.
func collectNames(roots []*obs.Node) []string {
	var names []string
	var walk func(*obs.Node)
	walk = func(n *obs.Node) {
		names = append(names, n.Span.Name)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return names
}

func hasName(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// TestTraceparentRoundTrip drives the W3C propagation contract over a
// live server: an inbound traceparent is adopted (the job's trace IS
// the caller's trace, the caller's span is the remote parent), the
// response echoes the trace in a traceparent header, and a malformed
// header falls back to a fresh derived trace instead of failing the
// request.
func TestTraceparentRoundTrip(t *testing.T) {
	svc := newTestService(t, 1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "g", Type: "rmat", Scale: 6, Weighted: true, Seed: 42}, nil); code != http.StatusCreated {
		t.Fatalf("register graph: %d %s", code, body)
	}

	// Mint a caller-side trace identity, as an upstream HTTP client would.
	callerTrace := obs.DeriveTraceID("trace-roundtrip-test", 1)
	callerSpan := obs.DeriveSpanID(callerTrace.String(), 1)
	header := obs.Traceparent(callerTrace, callerSpan)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(`{"graph":"g","algorithm":"PR","options":{"seed":7}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", header)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	echoed := resp.Header.Get("traceparent")
	var jv JobView
	if err := decodeInto(resp, &jv); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with traceparent: %d", resp.StatusCode)
	}

	// The response header carries OUR trace id with the server's own
	// request span (not the span we sent, which is the server's parent).
	gotTrace, gotSpan, ok := obs.ParseTraceparent(echoed)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echoed)
	}
	if gotTrace != callerTrace {
		t.Fatalf("response trace id %s, want the inbound %s", gotTrace, callerTrace)
	}
	if gotSpan == callerSpan {
		t.Fatal("server echoed our span id instead of opening its own request span")
	}
	if jv.TraceID != callerTrace.String() {
		t.Fatalf("job view trace id %q, want adopted %s", jv.TraceID, callerTrace)
	}

	pollJob(t, client, ts.URL, jv.ID)
	var tr traceResponse
	if code, body := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/"+jv.ID+"/trace", nil, &tr); code != http.StatusOK {
		t.Fatalf("GET trace: %d %s", code, body)
	}
	if len(tr.Tree) != 1 {
		t.Fatalf("trace has %d roots, want 1", len(tr.Tree))
	}
	root := tr.Tree[0].Span
	if !root.Remote || root.Parent != callerSpan.String() {
		t.Fatalf("root span = %+v, want remote with parent %s (the caller's span)", root, callerSpan)
	}
	if tr.Orphans != 0 {
		t.Fatalf("orphans = %d, want 0", tr.Orphans)
	}

	// The trace resolves by trace id too.
	var byTrace traceResponse
	if code, _ := doJSON(t, client, http.MethodGet, ts.URL+"/v1/traces/"+callerTrace.String(), nil, &byTrace); code != http.StatusOK {
		t.Fatalf("GET /v1/traces/{id}: %d", code)
	}
	if byTrace.ID != jv.ID {
		t.Fatalf("trace id resolved to job %q, want %q", byTrace.ID, jv.ID)
	}

	// Malformed headers: the request succeeds with a FRESH derived trace.
	for _, bad := range []string{
		"00-00000000000000000000000000000000-0000000000000000-01", // all-zero ids
		"not-a-traceparent",
		"FF-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // uppercase version
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			strings.NewReader(`{"graph":"g","algorithm":"BFS","options":{"seed":8}}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("traceparent", bad)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var fresh JobView
		if err := decodeInto(resp, &fresh); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit with malformed traceparent %q: %d", bad, resp.StatusCode)
		}
		ft, _, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
		if !ok {
			t.Fatalf("fresh traceparent %q does not parse", resp.Header.Get("traceparent"))
		}
		if ft == callerTrace {
			t.Fatalf("malformed header %q was adopted as trace %s", bad, ft)
		}
		if fresh.TraceID != ft.String() {
			t.Fatalf("job trace %q != response header trace %s", fresh.TraceID, ft)
		}
	}
}

// TestTraceTreeSurvivesCrashRequeue is the tentpole's durability
// acceptance in miniature: a job that was RUNNING when the process
// died is requeued on restart, and its trace tree — journaled span by
// span — carries the whole story: the original request root, the
// interrupted run, the recovery marker, the re-queue, the second run
// and the terminal state, with zero orphan spans.
func TestTraceTreeSurvivesCrashRequeue(t *testing.T) {
	dir := t.TempDir()
	w, _, err := durable.OpenWAL(filepath.Join(dir, "wal"), 0)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC()
	opts := mergeOptions(labOptions, chaos.Options{Seed: 7})

	// The journal a crashed process leaves behind: a graph and a running
	// job whose spans were journaled through its transitions.
	trace := obs.DeriveTraceID("crash-requeue-test", 1).String()
	seed := trace + "/j1"
	sid := func(n uint64) string { return obs.DeriveSpanID(seed, n).String() }
	base := now.Add(-time.Second).UnixNano()
	spans := []obs.TreeSpan{
		{TraceID: trace, SpanID: sid(0), Name: "POST /v1/jobs", Kind: obs.KindRequest, Start: base, End: base + 1e6},
		{TraceID: trace, SpanID: sid(1), Parent: sid(0), Name: "admitted", Kind: obs.KindLifecycle, Start: base + 1e6, End: base + 1e6},
		{TraceID: trace, SpanID: sid(2), Parent: sid(0), Name: "queued", Kind: obs.KindLifecycle, Start: base + 1e6, End: base + 2e6},
		{TraceID: trace, SpanID: sid(3), Parent: sid(0), Name: "run", Kind: obs.KindLifecycle, Start: base + 2e6}, // open: the crash cut it
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Append(recGraph, graphRecord{
		ID: "g1", Type: "rmat", Scale: 6, Seed: 1, SpecWeighted: true,
		Weighted: true, Vertices: 1 << 6, EdgeCount: 1 << 10, Registered: now,
	}))
	must(w.Append(recJob, jobRecord{
		ID: "j1", Graph: "g1", Algorithm: "PR", Options: opts,
		State: JobRunning, EnqueuedAt: now, StartedAt: now,
		TraceID: trace, TraceRemote: false, SpanSeq: 4, Spans: spans,
	}))
	must(w.Sync())
	w.Close()

	svc := openDurable(t, dir, 2)
	t.Cleanup(func() { svc.Shutdown(context.Background()) })

	jv := waitJob(t, svc, "j1")
	if jv.State != JobDone {
		t.Fatalf("recovered job: %s %q, want done", jv.State, jv.Error)
	}
	if jv.TraceID != trace {
		t.Fatalf("trace id %q did not survive the restart, want %s", jv.TraceID, trace)
	}

	ti, ok := svc.Scheduler().TraceInfo("j1")
	if !ok {
		t.Fatal("no trace info for the recovered job")
	}
	roots, orphans := obs.BuildTree(ti.spans)
	if orphans != 0 {
		t.Fatalf("orphans = %d, want 0 (every journaled span must link)", orphans)
	}
	if len(roots) != 1 || roots[0].Span.SpanID != sid(0) {
		t.Fatalf("roots = %d, want the original request span surviving as the single root", len(roots))
	}
	names := collectNames(roots)
	for _, want := range []string{"POST /v1/jobs", "admitted", "queued", "recovered", "run", "done"} {
		if !hasName(names, want) {
			t.Fatalf("trace tree %v is missing %q", names, want)
		}
	}
	// The interrupted first run is closed with the restart reason, and a
	// second queued span records the requeue.
	var interrupted, queued int
	for _, s := range ti.spans {
		if strings.Contains(s.Detail, "interrupted by restart") {
			interrupted++
		}
		if s.Name == "queued" {
			queued++
		}
		if s.End == 0 {
			t.Errorf("span %q (%s) left open after the job finished", s.Name, s.SpanID)
		}
	}
	if interrupted == 0 {
		t.Error("no span closed with the restart interruption reason")
	}
	if queued != 2 {
		t.Errorf("queued spans = %d, want 2 (original + post-recovery requeue)", queued)
	}

	// Crash AGAIN after completion: the full tree — recovery story
	// included — must come back read-only from the journal.
	crash(t, svc)
	svc2 := openDurable(t, dir, 2)
	t.Cleanup(func() { svc2.Shutdown(context.Background()) })
	ti2, ok := svc2.Scheduler().TraceInfo("j1")
	if !ok {
		t.Fatal("trace info lost after second restart")
	}
	roots2, orphans2 := obs.BuildTree(ti2.spans)
	if orphans2 != 0 || len(roots2) != 1 {
		t.Fatalf("post-restart tree: %d roots %d orphans, want 1/0", len(roots2), orphans2)
	}
	names2 := collectNames(roots2)
	for _, want := range []string{"POST /v1/jobs", "recovered", "run", "done"} {
		if !hasName(names2, want) {
			t.Fatalf("post-restart tree %v is missing %q", names2, want)
		}
	}
	if ti2.rec != nil {
		t.Error("restored job claims an engine recording; engine spans are execution-scoped")
	}
}

// decodeInto drains an http.Response body into out and closes it.
func decodeInto(resp *http.Response, out any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}
