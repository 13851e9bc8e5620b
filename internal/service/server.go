package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"chaos"
	"chaos/internal/obs"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/graphs     register a graph (GraphSpec JSON)
//	GET    /v1/graphs     list registered graphs
//	GET    /v1/graphs/{id}  one graph with its cached views
//	POST   /v1/jobs       submit a job (jobRequest JSON) -> 202, or 429
//	                      + Retry-After when the queue is at -max-queue
//	GET    /v1/jobs       list jobs (?state=done&limit=N&after=<id>);
//	                      views are payload-stripped (no Result/Report)
//	GET    /v1/jobs/{id}  job state, live progress while running, full
//	                      Report and Result when done
//	GET    /v1/jobs/{id}/events  SSE stream of state transitions and
//	                      iteration-boundary progress ticks
//	GET    /v1/jobs/{id}/trace  the job's end-to-end trace tree —
//	                      request, scheduler lifecycle, WAL and engine
//	                      spans stitched into one causal tree
//	                      (?format=chrome for trace_event JSON loadable
//	                      in about:tracing / Perfetto)
//	GET    /v1/traces/{id}  the same tree looked up by trace id (the
//	                      traceparent response header names it)
//	DELETE /v1/jobs/{id}  cancel a job (running ones stop at the next
//	                      iteration boundary; poll until "canceled")
//	GET    /healthz       liveness
//	GET    /v1/stats      queue depth, cache hit rate, per-algorithm counts
//	GET    /metrics       Prometheus text exposition of the same counters
//
// The handler is wrapped in the observability layer (see instrument):
// per-route latency histograms always, structured request logs when
// Config.Logger is set.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	for pattern, h := range s.routes() {
		mux.HandleFunc(pattern, h)
	}
	return s.instrument(mux)
}

// routes is the API surface as one table, so Handler registration and
// the pre-seeded per-route metric series (see routePatterns) cannot
// drift apart: a new endpoint added here gets its histogram for free.
func (s *Service) routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"POST /v1/graphs":          s.handleRegisterGraph,
		"GET /v1/graphs":           s.handleListGraphs,
		"GET /v1/graphs/{id}":      s.handleGetGraph,
		"POST /v1/jobs":            s.handleSubmitJob,
		"GET /v1/jobs":             s.handleListJobs,
		"GET /v1/jobs/{id}":        s.handleGetJob,
		"GET /v1/jobs/{id}/events": s.handleJobEvents,
		"GET /v1/jobs/{id}/trace":  s.handleJobTrace,
		"GET /v1/traces/{id}":      s.handleGetTrace,
		"DELETE /v1/jobs/{id}":     s.handleCancelJob,
		"GET /healthz":             s.handleHealth,
		"GET /v1/stats":            s.handleStats,
		"GET /metrics":             s.handleMetrics,
	}
}

// routePatterns lists the mux patterns of routes(); Open pre-seeds one
// duration-histogram series per pattern from it.
func (s *Service) routePatterns() []string {
	routes := s.routes()
	pats := make([]string, 0, len(routes))
	for p := range routes {
		pats = append(pats, p)
	}
	return pats
}

// jobRequest is the POST /v1/jobs payload. Options is chaos.Options
// itself, whose JSON tags are the wire form (hardware by name, byte sizes
// explicit); zero-valued fields inherit the service's BaseOptions and
// then the paper defaults. Bad storage and network names fail the decode
// with the CLIs' message.
type jobRequest struct {
	Graph     string        `json:"graph"`
	Algorithm string        `json:"algorithm"`
	Options   chaos.Options `json:"options"`
}

// resolve canonicalizes the request's names through the parsers the CLIs
// use, so a bad algorithm or engine fails with the identical message
// everywhere.
func (r jobRequest) resolve() (string, chaos.Options, error) {
	opt := r.Options
	// The engine name is validated here so a typo fails the submission
	// with 400 instead of failing the job later; the canonical spelling
	// is what gets journaled. An omitted engine stays empty so
	// mergeOptions can apply the server's BaseOptions default
	// (chaos-serve -engine).
	if opt.Engine != "" {
		engine, err := chaos.ParseEngine(opt.Engine)
		if err != nil {
			return "", opt, err
		}
		opt.Engine = engine
	}
	alg, err := chaos.ParseAlgorithm(r.Algorithm)
	return alg, opt, err
}

// maxBodyBytes bounds POST /v1/jobs payloads: job requests are small
// metadata, so anything past 1 MB is garbage or abuse. Graph
// registrations carry whole base64 edge lists and get their own, far
// larger, configurable cap (Config.MaxUploadBytes) — a weighted
// scale-16 R-MAT upload alone is tens of MB.
const maxBodyBytes = 1 << 20

// decodeStrict decodes a JSON request body, rejecting unknown fields —
// a typo'd option name fails loudly with 400 instead of silently running
// with defaults — and enforcing the given body size limit.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A second document in the body is as suspect as an unknown field.
	if dec.More() {
		return errors.New("request body must be a single JSON object")
	}
	return nil
}

// decodeStatus maps a decodeStrict failure to its HTTP status: an
// over-limit body is 413 Content Too Large, anything else is the
// caller's 400.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// statusFor maps service errors to HTTP statuses.
func statusFor(err error, fallback int) int {
	var nf *notFoundError
	var cf *conflictError
	var pe *persistError
	switch {
	case errors.As(err, &nf):
		return http.StatusNotFound
	case errors.As(err, &cf):
		return http.StatusConflict
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	default:
		return fallback
	}
}

func (s *Service) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var spec GraphSpec
	if err := decodeStrict(w, r, &spec, s.cfg.MaxUploadBytes); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	g, err := s.RegisterGraph(spec)
	if err != nil {
		writeError(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusCreated, g.Info())
}

func (s *Service) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	graphs := s.catalog.List()
	infos := make([]GraphInfo, len(graphs))
	for i, g := range graphs {
		infos[i] = g.Info()
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Service) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	g, ok := s.catalog.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, &notFoundError{what: "graph", id: r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, g.Info())
}

func (s *Service) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := decodeStrict(w, r, &req, maxBodyBytes); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	alg, opt, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.SubmitCtx(r.Context(), req.Graph, alg, opt)
	if err != nil {
		var qf *QueueFullError
		if errors.As(err, &qf) {
			// Admission control: the queue is at -max-queue. 429 with a
			// backlog-derived Retry-After keeps well-behaved clients
			// backing off instead of hammering the full queue.
			w.Header().Set("Retry-After", strconv.Itoa(qf.RetryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

// handleListJobs lists jobs, optionally filtered and paged:
// ?state=<queued|running|done|failed|canceled> keeps one state,
// ?limit=N caps the page, ?after=<id> resumes past a previous page's
// last id. With the journal preserving history across restarts,
// unpaged listings would otherwise grow with the service's lifetime.
func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var f JobFilter
	if st := q.Get("state"); st != "" {
		switch JobState(st) {
		case JobQueued, JobRunning, JobDone, JobFailed, JobCanceled:
			f.State = JobState(st)
		default:
			writeError(w, http.StatusBadRequest, errors.New("unknown state "+strconv.Quote(st)))
			return
		}
	}
	if lim := q.Get("limit"); lim != "" {
		n, err := strconv.Atoi(lim)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, errors.New("limit must be a non-negative integer"))
			return
		}
		f.Limit = n
	}
	if after := q.Get("after"); after != "" {
		if _, ok := jobSeq(after); !ok {
			writeError(w, http.StatusBadRequest, errors.New("after must be a job id like j42"))
			return
		}
		f.After = after
	}
	writeJSON(w, http.StatusOK, s.scheduler.ListFiltered(f))
}

func (s *Service) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.scheduler.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, &notFoundError{what: "job", id: r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// traceResponse is the GET /v1/jobs/{id}/trace payload: the job's
// identity plus its end-to-end trace — the rooted span tree (request,
// scheduler lifecycle, WAL and engine tiers stitched causally) and the
// flat engine flight recording. Dropped counts engine spans lost to
// the bounded ring (raise -trace-spans if nonzero); Orphans counts
// spans whose parent was dropped, re-attached under the root rather
// than lost. EngineAbsent explains a missing engine tier: engine spans
// are execution-scoped, so a trace recovered from the journal keeps
// its lifecycle tree but not the dead process's flight recording.
type traceResponse struct {
	ID      string      `json:"id"`
	TraceID string      `json:"traceId,omitempty"`
	Engine  string      `json:"engine"`
	State   JobState    `json:"state"`
	Tree    []*obs.Node `json:"tree"`
	Orphans int         `json:"orphans"`
	// Spans is the flat engine flight recording (the pre-tree wire
	// form, kept for existing consumers); empty when EngineAbsent.
	Spans        []chaos.TraceSpan `json:"spans"`
	Dropped      uint64            `json:"dropped,omitempty"`
	EngineAbsent string            `json:"engineAbsent,omitempty"`
}

// walTreeSpans converts the retained WAL operation spans overlapping
// [fromNs, toNs] into tree spans parented under the job's root. Span
// ids are derived from the snapshot index; the WAL tier is shared
// across jobs, so a busy server attributes an overlapping append to
// every job in flight — tiers, not exclusivity, is what the tree shows.
func (s *Service) walTreeSpans(traceID, root string, fromNs, toNs int64) []obs.TreeSpan {
	if s.walSpans == nil {
		return nil
	}
	spans, _ := s.walSpans.Snapshot()
	var out []obs.TreeSpan
	for i, sp := range spans {
		start := sp.Start.UnixNano()
		end := sp.Start.Add(sp.Dur).UnixNano()
		if end < fromNs || start > toNs {
			continue
		}
		detail := ""
		if sp.Bytes > 0 {
			detail = fmt.Sprintf("%d bytes", sp.Bytes)
		}
		out = append(out, obs.TreeSpan{
			TraceID: traceID,
			SpanID:  obs.DeriveSpanID(traceID+"/wal", uint64(i)).String(),
			Parent:  root,
			Name:    sp.Op,
			Kind:    obs.KindWAL,
			Start:   start,
			End:     end,
			Detail:  detail,
		})
	}
	return out
}

// jobTimeline assembles the merged cross-tier timeline of one job.
func (s *Service) jobTimeline(t jobTrace) (obs.Timeline, []chaos.TraceSpan, uint64, string) {
	tl := obs.Timeline{
		TraceID:    t.view.TraceID,
		Spans:      t.spans,
		RunSpanID:  t.runSpanID,
		RunStartNs: t.runStartNs,
	}
	var engine []chaos.TraceSpan
	var dropped uint64
	absent := ""
	if t.rec != nil {
		engine, dropped = t.rec.Spans()
		tl.Engine = engine
		tl.EngineVirtual = t.view.Engine == chaos.EngineSim
	} else {
		absent = "engine spans are execution-scoped and this process has no recording for the job " +
			"(still queued, answered from the result cache, or restored from the journal after a restart)"
	}
	from := t.view.EnqueuedAt.UnixNano()
	to := time.Now().UTC().UnixNano()
	if t.view.FinishedAt != nil {
		to = t.view.FinishedAt.UnixNano()
	}
	tl.Spans = append(tl.Spans, s.walTreeSpans(t.view.TraceID, t.rootSpanID, from, to)...)
	return tl, engine, dropped, absent
}

// handleJobTrace serves a job's end-to-end trace: the causal span tree
// stitched from the HTTP request, the scheduler lifecycle (admitted,
// queue wait, run, checkpoints, terminal — journaled through the WAL,
// so the tree survives a SIGKILL-restart), the WAL's own operation
// spans, and the engine flight recording of both planes. Plain JSON by
// default; ?format=chrome emits Chrome trace_event JSON loadable in
// about:tracing or Perfetto, with flow arrows across the queue and
// engine boundaries. A running job's trace is the spans so far. Every
// known job has a trace: recovery roots records journaled before
// tracing existed in a synthetic submit span.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	s.serveTrace(w, r, r.PathValue("id"))
}

// handleGetTrace serves the same trace looked up by trace id — the id
// the traceparent response header and every job view carry.
func (s *Service) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	traceID := r.PathValue("id")
	jobID, ok := s.scheduler.JobForTrace(traceID)
	if !ok {
		writeError(w, http.StatusNotFound, &notFoundError{what: "trace", id: traceID})
		return
	}
	s.serveTrace(w, r, jobID)
}

func (s *Service) serveTrace(w http.ResponseWriter, r *http.Request, id string) {
	t, ok := s.scheduler.TraceInfo(id)
	if !ok {
		writeError(w, http.StatusNotFound, &notFoundError{what: "job", id: id})
		return
	}
	tl, engine, dropped, absent := s.jobTimeline(t)
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		tl.WriteChrome(w)
		return
	}
	tree, orphans := tl.Tree()
	writeJSON(w, http.StatusOK, traceResponse{
		ID:           t.view.ID,
		TraceID:      t.view.TraceID,
		Engine:       t.view.Engine,
		State:        t.view.State,
		Tree:         tree,
		Orphans:      orphans,
		Spans:        engine,
		Dropped:      dropped,
		EngineAbsent: absent,
	})
}

func (s *Service) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.scheduler.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err, http.StatusConflict), err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleJobEvents streams a job's lifecycle as Server-Sent Events: a
// "state" snapshot first (so subscribers start from truth, not from
// the next transition), then every state transition and engine
// progress tick as they happen. The stream ends when the job reaches a
// terminal state, the client disconnects, or the subscriber lags too
// far behind a transition (reconnect and resync from the fresh
// snapshot). Event payloads are payload-stripped job views; fetch
// GET /v1/jobs/{id} for the full Result/Report after the "done" event.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer does not support streaming"))
		return
	}
	// Subscribe before snapshotting so no transition is lost in the
	// gap; events buffered in that gap are older than the snapshot and
	// are discarded below by the snapshot's sequence watermark (they
	// are not harmless duplicates — replaying them would walk a
	// client's progress backward).
	ch, cancelSub := s.scheduler.Subscribe(id)
	defer cancelSub()
	// Peek, not Get: the stream never serves payloads, so hydrating a
	// journal-restored job's result from the disk store here would read
	// and pin a blob only to strip it.
	jv, since, ok := s.scheduler.Peek(id)
	if !ok {
		writeError(w, http.StatusNotFound, &notFoundError{what: "job", id: id})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if err := writeSSE(w, JobEvent{Seq: since, Type: EventState, Job: jv}); err != nil {
		return
	}
	flusher.Flush()
	if jv.State.terminal() {
		return
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, open := <-ch:
			if !open {
				return // hub dropped a lagging subscriber; client resyncs
			}
			if ev.Seq <= since {
				continue // published before the snapshot; already reflected
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			flusher.Flush()
			if ev.Type == EventState && ev.Job.State.terminal() {
				return
			}
		}
	}
}

// writeSSE frames one event in text/event-stream form.
func writeSSE(w io.Writer, ev JobEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
