// End-to-end job tracing: every job owns one W3C-sized trace, rooted
// at the HTTP request that submitted it (or a synthetic submit span for
// library callers), with scheduler lifecycle spans journaled through
// the WAL so the tree survives a crash-restart. Engine flight-recorder
// spans and WAL operation spans are merged in at serve time — see
// obs.Timeline and DESIGN.md "One trace per job, across tiers".
//
// Everything here is observational-only: trace context rides
// context.Context (reqTrace, mirroring chaos.WithTrace), never
// chaos.Options, so tracing can never change a result or a cache key.
package service

import (
	"context"
	"slices"
	"time"

	"chaos"
	"chaos/internal/obs"
)

// reqTrace is the trace context the HTTP middleware extracts from an
// inbound traceparent header (or mints when there is none) and hands
// down the submission path on the request context. The scheduler roots
// the job's span tree in it.
type reqTrace struct {
	traceID string // lowercase-hex trace id
	span    string // the request (root) span's id
	parent  string // inbound parent span id, "" when the trace starts here
	remote  bool   // the parent span lives in the caller's process
	name    string // root span name, e.g. "POST /v1/jobs"
	start   time.Time
}

type reqTraceKey struct{}

// withReqTrace attaches the request's trace context; the middleware is
// the only producer.
func withReqTrace(ctx context.Context, rt *reqTrace) context.Context {
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

// reqTraceFrom extracts what withReqTrace attached, nil if nothing.
func reqTraceFrom(ctx context.Context) *reqTrace {
	if ctx == nil {
		return nil
	}
	rt, _ := ctx.Value(reqTraceKey{}).(*reqTrace)
	return rt
}

// spanSeed is the per-job span-id derivation seed: scoping it to the
// job keeps ids unique even when one client trace spans many jobs.
func (r *jobRecord) spanSeed() string { return r.TraceID + "/" + r.ID }

// addSpan appends one lifecycle span to the record and derives its id
// from the record's span counter; end 0 leaves the span open.
func (r *jobRecord) addSpan(name, detail, parent string, start, end int64) {
	r.SpanSeq++
	r.Spans = append(r.Spans, obs.TreeSpan{
		TraceID: r.TraceID,
		SpanID:  obs.DeriveSpanID(r.spanSeed(), r.SpanSeq).String(),
		Parent:  parent,
		Name:    name,
		Kind:    obs.KindLifecycle,
		Start:   start,
		End:     end,
		Detail:  detail,
	})
}

// closeOpenSpans ends every still-open span (a queue wait or a run),
// stamping detail when it is not empty.
func (r *jobRecord) closeOpenSpans(end int64, detail string) {
	for i := range r.Spans {
		if r.Spans[i].End == 0 {
			r.Spans[i].End = end
			if detail != "" {
				r.Spans[i].Detail = detail
			}
		}
	}
}

// initTrace roots a job's trace at its enqueue time: in the request when
// the submission came over HTTP (the root is the request span, remote
// when the caller sent a traceparent), or in a synthetic submit span
// derived from the job's options fingerprint for library callers and
// records journaled before tracing existed — either way the ids are
// derived, never random (see internal/obs).
func (r *jobRecord) initTrace(rt *reqTrace) {
	now := r.EnqueuedAt.UnixNano()
	root := obs.TreeSpan{Kind: obs.KindRequest, Start: now, End: now} // a request is answered at admission
	if rt != nil {
		r.TraceID, r.TraceRemote = rt.traceID, rt.remote
		root.SpanID, root.Parent, root.Remote, root.Name = rt.span, rt.parent, rt.remote, rt.name
		root.Start = rt.start.UnixNano()
		if root.Name == "" {
			root.Name = "request"
		}
	} else {
		r.TraceID = obs.DeriveTraceID(r.Options.Fingerprint()+"|"+r.ID, 0).String()
		root.SpanID, root.Name = obs.DeriveSpanID(r.spanSeed(), 0).String(), "submit"
	}
	root.TraceID = r.TraceID
	r.Spans = append(r.Spans, root)
	r.addSpan("admitted", "", root.SpanID, now, now)
}

// rootSpan is the id of the trace's root: the request span.
func (r *jobRecord) rootSpan() string {
	root := ""
	for _, sp := range r.Spans {
		if sp.Kind == obs.KindRequest {
			root = sp.SpanID
		}
	}
	return root
}

// runSpan is the current life's run span: the one checkpoints and engine
// spans parent under. It is the zero span before the job starts, and
// again once recovery requeues it (the run it had belonged to a process
// that is gone).
func (r *jobRecord) runSpan() obs.TreeSpan {
	var run obs.TreeSpan
	for _, sp := range r.Spans {
		switch sp.Name {
		case "run":
			run = sp
		case "recovered":
			run = obs.TreeSpan{}
		}
	}
	return run
}

// NoteJobSpan files an extra lifecycle span against a job — the
// service's durability checkpoint (result blob persisted) is the one
// producer. The span parents under the run span while one is open so
// checkpoints nest inside the run. The span is journaled (the job
// record carries the full span list) but not published as an event.
func (s *Scheduler) NoteJobSpan(j *Job, name, detail string, start time.Time, dur time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.step(jobEvent{kind: evSpan, name: name, detail: detail, dur: dur}, start)
	if s.onUpdate != nil {
		s.onUpdate(j)
	}
}

// jobTrace is the scheduler's contribution to GET /v1/jobs/{id}/trace:
// an immutable snapshot of the job's view, journaled spans, flight
// recorder and the span ids the timeline hangs other tiers from.
type jobTrace struct {
	view  JobView
	spans []obs.TreeSpan
	// rec is the engine flight recorder, nil when this process never
	// executed the job (queued, cache hit, journal-restored history).
	rec *chaos.TraceRecorder
	// rootSpanID is the request span WAL spans parent under;
	// runSpanID/runStartNs locate the run span engine spans parent under
	// and the epoch origin that aligns native engine times.
	rootSpanID string
	runSpanID  string
	runStartNs int64
}

// TraceInfo snapshots everything the trace endpoint needs in one lock
// acquisition.
func (s *Scheduler) TraceInfo(id string) (jobTrace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return jobTrace{}, false
	}
	run := j.runSpan()
	return jobTrace{
		view:       j.view().stripped(),
		spans:      slices.Clone(j.Spans),
		rec:        j.trace.Load(),
		rootSpanID: j.rootSpan(),
		runSpanID:  run.SpanID,
		runStartNs: run.Start,
	}, true
}

// JobForTrace resolves a trace id to the job that owns it — the
// GET /v1/traces/{id} lookup.
func (s *Scheduler) JobForTrace(traceID string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byTrace[traceID]
	return id, ok
}
