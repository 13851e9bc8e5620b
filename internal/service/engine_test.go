package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chaos"
	"chaos/internal/obs"
)

// TestNativeEngineJobEndToEnd submits a job on the native execution
// plane through the HTTP API and checks the engine surfaces everywhere:
// the job view, the report, /v1/stats and /metrics.
func TestNativeEngineJobEndToEnd(t *testing.T) {
	svc := newTestService(t, 2)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/graphs",
		GraphSpec{Name: "g", Type: "rmat", Scale: 7, Seed: 42}, nil); code != http.StatusCreated {
		t.Fatalf("register graph: %d %s", code, body)
	}

	var jv JobView
	code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "g", Algorithm: "PR", Options: chaos.Options{Engine: "native", Seed: 3}}, &jv)
	if code != http.StatusAccepted {
		t.Fatalf("submit native job: %d %s", code, body)
	}
	if jv.Engine != chaos.EngineNative {
		t.Fatalf("queued view engine = %q, want native", jv.Engine)
	}
	done := pollJob(t, client, ts.URL, jv.ID)
	if done.State != JobDone {
		t.Fatalf("native job ended %s: %s", done.State, done.Error)
	}
	if done.Engine != chaos.EngineNative {
		t.Errorf("done view engine = %q, want native", done.Engine)
	}
	if done.Report == nil || done.Report.Engine != chaos.EngineNative {
		t.Fatalf("report engine wrong: %+v", done.Report)
	}
	if done.Report.WallSeconds <= 0 || done.Report.SimulatedSeconds != 0 {
		t.Errorf("native report times wrong: %+v", done.Report)
	}
	if done.Result == nil || done.Result.Summary["rank_sum"] <= 0 {
		t.Errorf("native result not populated: %+v", done.Result)
	}

	// The identical resubmission is a cache hit — the two engines must
	// not share an entry, so a sim-engine submission of the same job
	// really runs (and reports virtual time).
	var simJV JobView
	if code, body := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "g", Algorithm: "PR", Options: chaos.Options{Seed: 3}}, &simJV); code != http.StatusAccepted {
		t.Fatalf("submit sim job: %d %s", code, body)
	}
	simDone := pollJob(t, client, ts.URL, simJV.ID)
	if simDone.CacheHit {
		t.Error("sim submission hit the native cache entry")
	}
	if simDone.Engine != chaos.EngineSim || simDone.Report == nil || simDone.Report.SimulatedSeconds <= 0 {
		t.Errorf("sim job shape wrong: engine %q report %+v", simDone.Engine, simDone.Report)
	}

	// And the native resubmission IS a hit — with the retired
	// nativeBarrier key set, as an old client would send it: the key is
	// accepted and ignored, so the job shares the entry of one without it.
	var hitJV JobView
	if code, _ := doJSON(t, client, http.MethodPost, ts.URL+"/v1/jobs",
		jobRequest{Graph: "g", Algorithm: "PR", Options: chaos.Options{Engine: "native", NativeBarrier: true, Seed: 3}}, &hitJV); code != http.StatusAccepted {
		t.Fatal("native resubmission rejected")
	}
	if hit := pollJob(t, client, ts.URL, hitJV.ID); !hit.CacheHit || hit.Engine != chaos.EngineNative {
		t.Errorf("native resubmission: cacheHit=%v engine=%q", hit.CacheHit, hit.Engine)
	}

	// Stats and metrics carry the per-engine counters.
	var st Stats
	if code, body := doJSON(t, client, http.MethodGet, ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	if st.PerEngine[chaos.EngineNative] != 2 || st.PerEngine[chaos.EngineSim] != 1 {
		t.Errorf("perEngine = %v, want native:2 sim:1", st.PerEngine)
	}
	if st.NativeWallSeconds <= 0 {
		t.Errorf("nativeWallSeconds = %g, want > 0", st.NativeWallSeconds)
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`chaos_jobs_by_engine{engine="native"} 2`,
		`chaos_jobs_by_engine{engine="sim"} 1`,
		"chaos_native_wall_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, text)
		}
	}
}

// TestBadOptionsRejectedAtSubmit: whatever the run would reject before
// doing any work — a name no parser knows, an option combination the
// engine's own normalization refuses — fails the submission with 400 and
// the same message the CLIs and the engine print, and schedules nothing.
func TestBadOptionsRejectedAtSubmit(t *testing.T) {
	svc := newTestService(t, 1)
	h := svc.Handler()
	if w := postJSON(t, h, "/v1/graphs", `{"name":"g","type":"rmat","scale":5,"seed":1}`); w.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	for options, want := range map[string]string{
		`{"engine":"turbo"}`:                            `chaos: unknown engine "turbo" (want sim or native)`,
		`{"storage":"tape"}`:                            `chaos: unknown storage "tape" (want ssd or hdd)`,
		`{"network":"10g"}`:                             `chaos: unknown network "10g" (want 40g or 1g)`,
		`{"storage":7}`:                                 `chaos: storage must be a name or the legacy value 0 or 1, got 7`,
		`{"failAtIteration":3}`:                         `core: failure injection requires checkpointing`,
		`{"rewriteEdges":true,"centralDirectory":true}`: `core: edge rewriting is not supported with the central directory baseline`,
		`{"rewriteEdges":true,"failAtIteration":3,"checkpointEvery":1}`: `core: edge rewriting cannot roll back; disable failure injection`,
		// << 20 would wrap this budget to 1 MiB.
		`{"memoryBudgetMB":17592186044417}`: `chaos: memoryBudgetMB 17592186044417 is more than the 8796093022207 MiB a byte count can hold`,
	} {
		w := postJSON(t, h, "/v1/jobs", `{"graph":"g","algorithm":"PR","options":`+options+`}`)
		var resp errorResponse
		json.Unmarshal(w.Body.Bytes(), &resp)
		if w.Code != http.StatusBadRequest || resp.Error != want {
			t.Errorf("options %s: %d %q, want 400 %q", options, w.Code, resp.Error, want)
		}
	}
	if st := svc.Stats(); len(st.Jobs) != 0 || st.QueueDepth != 0 {
		t.Errorf("rejected submissions were scheduled: %+v", st.Jobs)
	}
}

// TestOldJournalRecordDefaultsEngineToSim replays a job record written
// before the engine option existed (its options JSON has no Engine key)
// and checks it restores reporting the only engine there was.
func TestOldJournalRecordDefaultsEngineToSim(t *testing.T) {
	// A verbatim pre-PR-5 jobRecord: chaos.Options marshals with Go
	// field names, and old records simply lack "Engine".
	raw := []byte(`{
		"id": "j9",
		"graph": "g1",
		"algorithm": "PR",
		"options": {"Machines": 2, "ChunkBytes": 1024, "Seed": 7},
		"state": "done",
		"enqueuedAt": "2026-01-02T03:04:05Z",
		"finishedAt": "2026-01-02T03:05:06Z"
	}`)
	var jr jobRecord
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Options.Engine != "" {
		t.Fatalf("decoded engine %q, want empty", jr.Options.Engine)
	}

	svc := newTestService(t, 1)
	svc.restoreJobs([]jobRecord{jr}, 0)
	v, ok := svc.scheduler.Get("j9")
	if !ok {
		t.Fatal("restored job not found")
	}
	if v.Engine != chaos.EngineSim {
		t.Errorf("restored engine = %q, want sim", v.Engine)
	}
	if v.State != JobDone {
		t.Errorf("restored state = %s, want done", v.State)
	}
	// The record predates tracing too: recovery roots it in a synthetic
	// submit span, so its trace is a tree like any other.
	ti, ok := svc.scheduler.TraceInfo("j9")
	if !ok {
		t.Fatal("restored job has no trace info")
	}
	roots, orphans := obs.BuildTree(ti.spans)
	if orphans != 0 || len(roots) != 1 || roots[0].Span.Name != "submit" || roots[0].Span.SpanID != ti.rootSpanID {
		t.Errorf("restored trace: %d roots (%+v), %d orphans; want one submit root and no orphans", len(roots), roots, orphans)
	}
}
