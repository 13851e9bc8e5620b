package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chaos"
	"chaos/internal/graph"
)

// labOptions are the scaled-down defaults every test job inherits, the
// same chunk-shrinking rule the benches use (see DESIGN.md).
var labOptions = chaos.Options{
	ChunkBytes:   1 << 10,
	LatencyScale: 1.0 / 4096,
	Seed:         1,
}

func newTestService(t *testing.T, workers int) *Service {
	t.Helper()
	svc := New(Config{Workers: workers, BaseOptions: labOptions})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc
}

func doJSON(t *testing.T, client *http.Client, method, url string, body any, out any) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	if out != nil {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw.String(), err)
		}
	}
	return resp.StatusCode, raw.String()
}

// pollJob polls GET /v1/jobs/{id} until the job leaves the queued and
// running states.
func pollJob(t *testing.T, client *http.Client, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var jv JobView
		code, body := doJSON(t, client, http.MethodGet, base+"/v1/jobs/"+id, nil, &jv)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, code, body)
		}
		if jv.State != JobQueued && jv.State != JobRunning {
			return jv
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobView{}
}

// TestEndToEnd drives the whole API against a live httptest server:
// register a graph, submit concurrent jobs across several algorithms,
// poll them to completion, verify the report and result payloads, take a
// result-cache hit on resubmission, and shut down gracefully.
func TestEndToEnd(t *testing.T) {
	svc := newTestService(t, 2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	// Liveness.
	if code, body := doJSON(t, client, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}

	// Register a weighted R-MAT graph (weights let every algorithm run).
	var g GraphInfo
	code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "rmat8", Type: "rmat", Scale: 8, Weighted: true, Seed: 42}, &g)
	if code != http.StatusCreated {
		t.Fatalf("register graph: %d %s", code, body)
	}
	if g.ID != "rmat8" || g.Vertices != 1<<8 || g.Edges != 1<<12 {
		t.Fatalf("graph payload %+v", g)
	}

	// Re-registering the same name conflicts; an invalid spec that
	// happens to reuse an existing name is still a plain bad request.
	if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "rmat8", Type: "rmat", Scale: 8, Weighted: true, Seed: 42}, nil); code != http.StatusConflict {
		t.Errorf("duplicate register: code %d, want 409", code)
	}
	if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "rmat8", Type: "mystery"}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid spec on existing name: code %d, want 400", code)
	}

	var graphs []GraphInfo
	if code, body := doJSON(t, client, http.MethodGet, ts.URL+"/v1/graphs", nil, &graphs); code != http.StatusOK || len(graphs) != 1 {
		t.Fatalf("list graphs: %d %s", code, body)
	}

	// Submit 5 jobs across 4 algorithms concurrently (the pool runs 2 at
	// a time). Seeds are fixed, so every run is deterministic.
	type submission struct {
		alg  string
		seed int64
	}
	subs := []submission{{"BFS", 7}, {"PR", 7}, {"SSSP", 7}, {"WCC", 7}, {"PR", 8}}
	ids := make([]string, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub submission) {
			defer wg.Done()
			var jv JobView
			code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs", jobRequest{
				Graph:     "rmat8",
				Algorithm: strings.ToLower(sub.alg), // exercises case-insensitive parsing
				Options:   chaos.Options{Machines: 2, Seed: sub.seed},
			}, &jv)
			if code != http.StatusAccepted {
				t.Errorf("submit %s: %d %s", sub.alg, code, body)
				return
			}
			ids[i] = jv.ID
		}(i, sub)
	}
	wg.Wait()

	// Every job completes with a full report and a result summary.
	for i, sub := range subs {
		jv := pollJob(t, client, ts.URL, ids[i])
		if jv.State != JobDone {
			t.Fatalf("job %s (%s): state %s, error %q", jv.ID, sub.alg, jv.State, jv.Error)
		}
		if jv.Report == nil || jv.Result == nil {
			t.Fatalf("job %s: missing report/result", jv.ID)
		}
		if jv.Report.Algorithm != sub.alg || jv.Result.Algorithm != sub.alg {
			t.Errorf("job %s: algorithm %q/%q, want %s", jv.ID, jv.Report.Algorithm, jv.Result.Algorithm, sub.alg)
		}
		if jv.Report.Machines != 2 {
			t.Errorf("job %s: machines %d, want 2", jv.ID, jv.Report.Machines)
		}
		if jv.Report.SimulatedSeconds <= 0 || jv.Report.Iterations < 1 {
			t.Errorf("job %s: implausible report %+v", jv.ID, jv.Report)
		}
		if len(jv.Report.Breakdown) == 0 {
			t.Errorf("job %s: empty breakdown", jv.ID)
		}
		if jv.Result.Vertices != 1<<8 || len(jv.Result.Summary) == 0 {
			t.Errorf("job %s: implausible result %+v", jv.ID, jv.Result)
		}
	}

	// Resubmitting an identical request is answered from the result
	// cache: done immediately, flagged as a hit, same payload.
	first := pollJob(t, client, ts.URL, ids[0])
	var hit JobView
	code, body = doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs", jobRequest{
		Graph:     "rmat8",
		Algorithm: "BFS",
		Options:   chaos.Options{Machines: 2, Seed: 7},
	}, &hit)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", code, body)
	}
	if hit.State != JobDone || !hit.CacheHit {
		t.Fatalf("resubmit: state %s cacheHit %v, want immediate cached done", hit.State, hit.CacheHit)
	}
	if fmt.Sprint(hit.Result.Summary) != fmt.Sprint(first.Result.Summary) {
		t.Errorf("cache returned different summary: %v vs %v", hit.Result.Summary, first.Result.Summary)
	}

	// Canceling a finished job is a conflict.
	if code, _ := doJSON(t, client, http.MethodDelete, ts.URL+"/v1/jobs/"+ids[0], nil, nil); code != http.StatusConflict {
		t.Errorf("cancel done job: code %d, want 409", code)
	}

	// Stats reflect what happened.
	var st Stats
	if code, body := doJSON(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	if st.Graphs != 1 || st.Workers != 2 {
		t.Errorf("stats header %+v", st)
	}
	if st.Cache.Hits < 1 || st.Cache.HitRate <= 0 {
		t.Errorf("cache stats %+v, want at least one hit", st.Cache)
	}
	if st.PerAlgorithm["PR"] != 2 || st.PerAlgorithm["BFS"] != 2 {
		t.Errorf("per-algorithm counts %+v", st.PerAlgorithm)
	}
	if st.Jobs[string(JobDone)] != 6 {
		t.Errorf("done count %d, want 6", st.Jobs[string(JobDone)])
	}

	// Unknown algorithm and unknown graph fail with the right statuses.
	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "rmat8", Algorithm: "dijkstra"}, nil); code != http.StatusBadRequest || !strings.Contains(body, "unknown algorithm") {
		t.Errorf("bad algorithm: %d %s", code, body)
	}
	if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "nope", Algorithm: "PR"}, nil); code != http.StatusNotFound {
		t.Errorf("bad graph: code %d, want 404", code)
	}
	if code, _ := doJSON(t, client, http.MethodGet, ts.URL+"/v1/jobs/j999", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", code)
	}

	// Graceful shutdown drains; afterwards submissions are refused.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "rmat8", Algorithm: "PR", Options: chaos.Options{Seed: 99}}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: code %d, want 503", code)
	}
}

// TestUploadedGraphMatchesDirectRun registers a chaos-gen binary edge
// list over HTTP and checks the service's answer is bit-identical to
// calling the library directly.
func TestUploadedGraphMatchesDirectRun(t *testing.T) {
	edges := chaos.GenerateRMAT(6, false, 5)
	data := graph.FormatFor(1<<6, false).EncodeEdges(nil, edges)

	svc := newTestService(t, 1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	var g GraphInfo
	code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "up", Type: "upload", Vertices: 1 << 6, Data: data}, &g)
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %s", code, body)
	}
	if g.Edges != len(edges) || g.Vertices != 1<<6 {
		t.Fatalf("uploaded graph %+v, want %d edges", g, len(edges))
	}

	var jv JobView
	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "up", Algorithm: "BFS", Options: chaos.Options{Seed: 3}}, &jv); code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	got := pollJob(t, client, ts.URL, jv.ID)
	if got.State != JobDone {
		t.Fatalf("job: %s %s", got.State, got.Error)
	}

	opt := labOptions
	opt.Seed = 3
	want, wantRep, err := chaos.RunByNameResult("BFS", edges, 1<<6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Result.Summary) != fmt.Sprint(want.Summary) {
		t.Errorf("service summary %v != direct run %v", got.Result.Summary, want.Summary)
	}
	if got.Report.SimulatedSeconds != wantRep.SimulatedSeconds {
		t.Errorf("service runtime %v != direct run %v", got.Report.SimulatedSeconds, wantRep.SimulatedSeconds)
	}
}

// TestWeightedAlgorithmNeedsWeightedGraph: weight-consuming algorithms
// on an unweighted graph are rejected instead of silently computing (and
// caching) all-zero distances.
func TestWeightedAlgorithmNeedsWeightedGraph(t *testing.T) {
	svc := newTestService(t, 1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "plain", Type: "rmat", Scale: 6, Seed: 1}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	for _, alg := range []string{"sssp", "mcst", "spmv", "bp"} {
		code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
			jobRequest{Graph: "plain", Algorithm: alg}, nil)
		if code != http.StatusBadRequest || !strings.Contains(body, "needs edge weights") {
			t.Errorf("%s on unweighted graph: %d %s", alg, code, body)
		}
	}
	// Unweighted algorithms still run.
	var jv JobView
	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "plain", Algorithm: "bfs"}, &jv); code != http.StatusAccepted {
		t.Fatalf("bfs: %d %s", code, body)
	}
	if got := pollJob(t, client, ts.URL, jv.ID); got.State != JobDone {
		t.Errorf("bfs job: %s %s", got.State, got.Error)
	}
}

// TestMergeOptionsLatencyScale checks the chunk/latency coupling: a job
// that overrides the chunk size without pinning LatencyScale gets the
// scale derived from its own chunks, not the base configuration's.
func TestMergeOptionsLatencyScale(t *testing.T) {
	base := chaos.Options{ChunkBytes: 4 << 20, LatencyScale: 1}

	// Inheriting the base chunk size inherits the base scale.
	got := mergeOptions(base, chaos.Options{})
	if got.LatencyScale != 1 || got.ChunkBytes != 4<<20 {
		t.Errorf("inherited: %+v", got)
	}
	// Overriding the chunk size re-derives the scale (64 KiB / 4 MiB).
	got = mergeOptions(base, chaos.Options{ChunkBytes: 64 << 10})
	if want := 1.0 / 64; got.LatencyScale != want {
		t.Errorf("overridden chunk: scale %v, want %v", got.LatencyScale, want)
	}
	// An explicit request scale always wins.
	got = mergeOptions(base, chaos.Options{ChunkBytes: 64 << 10, LatencyScale: 0.5})
	if got.LatencyScale != 0.5 {
		t.Errorf("explicit scale: %v, want 0.5", got.LatencyScale)
	}
	// No base scale at all: derive from the effective chunk size.
	got = mergeOptions(chaos.Options{}, chaos.Options{})
	if got.LatencyScale != 1 {
		t.Errorf("paper defaults: scale %v, want 1", got.LatencyScale)
	}
}

// TestCacheKeyCanonicalization checks that requests differing only in
// spelled-out defaults share one cache entry.
func TestCacheKeyCanonicalization(t *testing.T) {
	svc := newTestService(t, 1)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "tiny", Type: "rmat", Scale: 6, Seed: 1}, nil); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}

	var first JobView
	doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "tiny", Algorithm: "PR"}, &first)
	pollJob(t, client, ts.URL, first.ID)

	// machines:1, storage "ssd", network "40g" are all defaults; the
	// fingerprint must not distinguish them from the zero request.
	var second JobView
	code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "tiny", Algorithm: "pagerank",
			Options: chaos.Options{Machines: 1, Storage: chaos.SSD, Network: chaos.Net40GigE}}, &second)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", code, body)
	}
	if !second.CacheHit {
		t.Error("canonically-equal request missed the cache")
	}
}

// TestPartitionBlowupFailsTheJobOnly: a memory budget of a few bytes asks
// for one partition per vertex, and per-partition state grows with the
// square of the count. The layout refuses past partition.MaxPartitions
// before either driver allocates, so the job fails with the reason and
// the service keeps serving.
func TestPartitionBlowupFailsTheJobOnly(t *testing.T) {
	svc := newTestService(t, 1)
	if _, err := svc.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 11, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{chaos.EngineSim, chaos.EngineNative} {
		jv, err := svc.Submit("g", "PR", chaos.Options{Engine: engine, MemBudgetBytes: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got := waitJob(t, svc, jv.ID); got.State != JobFailed || !strings.Contains(got.Error, "need more than 1024 partitions") {
			t.Errorf("%s: one-vertex budget: %s %q, want failed with the partition limit", engine, got.State, got.Error)
		}
		jv, err = svc.Submit("g", "PR", chaos.Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if got := waitJob(t, svc, jv.ID); got.State != JobDone {
			t.Errorf("%s: job after the failed one: %s %q, want done", engine, got.State, got.Error)
		}
	}
}
