package service

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chaos"
	"chaos/internal/obs"
)

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle: a submission is queued (or, answered from the result
// cache, done at once); a worker moves it to running and then done or
// failed; Cancel moves a queued job straight to canceled, and asks a
// running job to stop at its next iteration boundary (the engine
// observes the job's context there), after which it ends canceled.
// After a crash, recovery is one more event on each journaled record:
// an accepted cancel is honoured, a job whose graph is gone or that has
// been through maxRestarts restarts fails, and other unfinished work is
// queued again. jobRecord.step is the one function that makes every one
// of these transitions.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// terminal reports whether the state is final: done, failed or canceled.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is one algorithm run over a registered graph. Its durable state is
// its journal record, embedded whole and changed only by jobRecord.step.
// The record is guarded by the scheduler's mutex, except that the run
// reads the identity (ID, Graph, Algorithm, Options), fixed at admission,
// and the restart count, which only recovery changes, without it. The
// fields below are live-only: they are never journaled, and handlers read
// them through snapshots (JobView).
type Job struct {
	jobRecord

	result *chaos.Result
	report *chaos.Report

	// cancel stops the running simulation at its next iteration
	// boundary; set only while the job runs.
	cancel context.CancelFunc
	// runView is the job's view as published at the running transition
	// and again when a cancel is accepted. The lock-free progress ticks
	// copy it, so an accepted cancel never "un-happens" in a later tick,
	// and the ticks never read the record a transition is writing.
	runView atomic.Pointer[JobView]

	// progress is the engine's latest iteration-boundary snapshot,
	// written by the run goroutine at every tick and read by view();
	// atomic so ticks never contend on the scheduler mutex.
	progress atomic.Pointer[chaos.Progress]
	// trace is the flight recorder the executor attached before running
	// (nil for cache hits and journal-restored jobs — nothing ran, so
	// nothing was recorded); atomic because the run goroutine stores it
	// while GET /v1/jobs/{id}/trace loads it. The recorder itself is
	// safe for concurrent use, so reading it mid-run is fine: the trace
	// of a running job is simply a prefix.
	trace atomic.Pointer[chaos.TraceRecorder]
	// computeShare is this job's slice of the scheduler's shared
	// compute-worker budget, fixed when the job starts.
	computeShare int
}

// JobView is an immutable snapshot of a Job, safe to serialize.
type JobView struct {
	ID        string `json:"id"`
	Graph     string `json:"graph"`
	Algorithm string `json:"algorithm"`
	// Engine is the execution plane that runs (or ran) the job: "sim"
	// or "native". Jobs journaled before the engine option existed
	// report "sim", the only engine there was.
	Engine string `json:"engine"`
	// TraceID is the job's end-to-end trace (GET /v1/traces/{id}). Every
	// job has one: recovery roots records journaled before tracing
	// existed in a synthetic submit span.
	TraceID    string        `json:"traceId,omitempty"`
	State      JobState      `json:"state"`
	CacheHit   bool          `json:"cacheHit,omitempty"`
	Canceling  bool          `json:"canceling,omitempty"`
	Restarts   int           `json:"restarts,omitempty"`
	Error      string        `json:"error,omitempty"`
	EnqueuedAt time.Time     `json:"enqueuedAt"`
	StartedAt  *time.Time    `json:"startedAt,omitempty"`
	FinishedAt *time.Time    `json:"finishedAt,omitempty"`
	Result     *chaos.Result `json:"result,omitempty"`
	Report     *chaos.Report `json:"report,omitempty"`
	// Progress is the live iteration-boundary snapshot of a running
	// job: iterations, simulated seconds, bytes moved, steals accepted.
	Progress *chaos.Progress `json:"progress,omitempty"`
}

// stripped returns the view without the Result/Report payloads —
// the uniform list/event form. Listings used to embed full payloads
// for in-memory done jobs but null for journal-restored ones (listing
// never hydrates from the disk store); stripping both ways keeps
// listings uniform and cheap, and GET /v1/jobs/{id} keeps the payload.
func (v JobView) stripped() JobView {
	v.Result, v.Report = nil, nil
	return v
}

// engine is the job's canonical execution-engine name ("" and aliases
// fold to "sim"); derived from the submitted options so journal-restored
// pre-engine jobs report "sim".
func (j *Job) engine() string {
	if eng, err := chaos.ParseEngine(j.Options.Engine); err == nil {
		return eng
	}
	return j.Options.Engine // unknown names never pass Submit; be honest
}

// view snapshots the job: its record plus the live fields; callers hold
// s.mu.
func (j *Job) view() JobView {
	v := JobView{
		ID:         j.ID,
		Graph:      j.Graph,
		Algorithm:  j.Algorithm,
		Engine:     j.engine(),
		TraceID:    j.TraceID,
		State:      j.State,
		CacheHit:   j.CacheHit,
		Canceling:  j.Canceling,
		Restarts:   j.Restarts,
		Error:      j.Error,
		EnqueuedAt: j.EnqueuedAt,
		StartedAt:  timeOrNil(j.StartedAt),
		FinishedAt: timeOrNil(j.FinishedAt),
		Result:     j.result,
		Report:     j.report,
	}
	if j.State == JobRunning {
		v.Progress = j.progress.Load()
	}
	return v
}

func timeOrNil(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

// jobEvent is one thing that happens to a job; jobRecord.step applies it.
type jobEvent struct {
	kind jobEventKind
	// root is the request span an admitted job's trace roots in (nil: a
	// synthetic submit root).
	root *obs.TreeSpan
	// err is what the run returned (evFinish; nil is success).
	err error
	// name, detail and dur describe an evSpan span, which starts at the
	// event's time; detail is also the reason a canceled queued job
	// records (evCancel).
	name, detail string
	dur          time.Duration
	// graphKnown and maxRestarts are what recovery knows (evRestart).
	graphKnown  bool
	maxRestarts int
}

type jobEventKind uint8

const (
	evSubmit   jobEventKind = iota // admitted to the queue
	evCacheHit                     // admitted already answered by the result cache
	evStart                        // a worker picked the job up
	evFinish                       // the run returned
	evCancel                       // Cancel, or Shutdown on a queued job
	evSpan                         // an extra lifecycle span (the result checkpoint)
	evRestart                      // recovery found the record in the journal
)

// step applies ev to the record at time now. It is the one function that
// changes a job's state, error, times, restart count or spans, for the
// live service and crash recovery alike, so replaying a journal and
// running the service cannot disagree. An event that does not apply in
// the record's state changes nothing, so a terminal state is final.
//
// step writes the record in place, and only the fields the event
// changes: a job's run reads the record's identity and restart count
// without the lock while Cancel steps it.
func (r *jobRecord) step(ev jobEvent, now time.Time) {
	ns := now.UnixNano()
	switch ev.kind {
	case evSubmit, evCacheHit:
		if r.State != "" {
			return
		}
		r.EnqueuedAt = now
		r.initTrace(ev.root)
		if ev.kind == evSubmit {
			r.State = JobQueued
			r.addSpan("queued", "", r.rootSpan(), ns, 0)
		} else {
			r.State, r.CacheHit, r.FinishedAt = JobDone, true, now
			r.addSpan("done", "served from the result cache", r.rootSpan(), ns, ns)
		}
	case evStart:
		if r.State != JobQueued {
			return
		}
		r.State, r.StartedAt = JobRunning, now
		r.closeOpenSpans(ns, "")
		r.addSpan("run", "", r.rootSpan(), ns, 0)
	case evFinish:
		switch {
		case r.State != JobRunning:
		case ev.err == nil:
			r.finish(JobDone, "", now)
		case errors.Is(ev.err, context.Canceled) && r.Canceling:
			r.finish(JobCanceled, "canceled while running; stopped at an iteration boundary", now)
		default:
			r.finish(JobFailed, ev.err.Error(), now)
		}
	case evCancel:
		switch {
		case r.State == JobQueued:
			r.finish(JobCanceled, ev.detail, now)
		case r.State == JobRunning && !r.Canceling:
			// Journaled: if the process dies before the boundary,
			// recovery must cancel the job, not rerun it to completion.
			r.Canceling = true
			r.addSpan("cancel requested", "stops at the next iteration boundary", r.rootSpan(), ns, ns)
		}
	case evSpan:
		parent := r.runSpan().SpanID // checkpoints nest inside the run
		if parent == "" {
			parent = r.rootSpan()
		}
		r.addSpan(ev.name, ev.detail, parent, ns, now.Add(ev.dur).UnixNano())
	case evRestart:
		if r.TraceID == "" {
			r.initTrace(nil) // journaled before tracing existed
		}
		switch {
		case r.State.terminal():
			r.Canceling = false // a stray flag on history; only a run can be canceling
		case r.Canceling:
			// The API accepted this cancellation before the crash.
			r.finish(JobCanceled, "canceled while running; the process restarted before the run stopped", now)
		case !ev.graphKnown:
			r.finish(JobFailed, fmt.Sprintf("not recoverable after restart: graph %q is gone", r.Graph), now)
		case r.Restarts >= ev.maxRestarts:
			// A job that takes the process down with it would come back
			// on every boot: a crash loop. Quarantine it.
			r.finish(JobFailed, fmt.Sprintf("not re-enqueued after restart: %d restarts already found this job unfinished", r.Restarts), now)
		default:
			// The run of the previous life is gone: close its spans, mark
			// the recovery and queue the job again.
			r.State, r.StartedAt, r.FinishedAt = JobQueued, time.Time{}, time.Time{}
			r.Restarts++
			r.closeOpenSpans(ns, "interrupted by restart")
			r.addSpan("recovered", fmt.Sprintf("restart %d: re-enqueued after crash recovery", r.Restarts), r.rootSpan(), ns, ns)
			r.addSpan("queued", "requeued after restart", r.rootSpan(), ns, 0)
		}
	}
}

// finish moves the record to a terminal state: the open queue or run
// span closes, and a point span named for the state carries the reason.
func (r *jobRecord) finish(state JobState, reason string, now time.Time) {
	ns := now.UnixNano()
	r.State, r.Error, r.FinishedAt, r.Canceling = state, reason, now, false
	r.closeOpenSpans(ns, "")
	r.addSpan(string(state), reason, r.rootSpan(), ns, ns)
}

// runFunc executes one job and returns its result; the scheduler owns all
// state transitions around the call. ctx is canceled when the job's
// cancellation is requested; a run that returns ctx.Err() after that is
// recorded as canceled, not failed.
type runFunc func(ctx context.Context, j *Job) (*chaos.Result, *chaos.Report, error)

// Scheduler runs jobs on a bounded worker pool: at most `workers`
// simulations execute concurrently, the rest wait in a bounded FIFO
// queue (admission control rejects past MaxQueue). The queue is the
// queued part of the job list: a job is queued only when it is appended
// to order, so every queued job sits at or past next, and a worker takes
// the first queued job from next on.
type Scheduler struct {
	run      runFunc
	workers  int
	retain   int // finished jobs kept in history
	maxQueue int // queued-job bound (0 = unbounded)
	// computeBudget is the shared pool of engine compute workers divided
	// across running jobs.
	computeBudget int

	mu   sync.Mutex
	cond *sync.Cond
	// order is every job in submission order; a worker has passed
	// order[:next]. Pruning drops finished jobs from it and clears the
	// vacated tail, so history retention plus MaxQueue bounds what it
	// holds.
	order  []*Job
	next   int
	queued int // jobs in state JobQueued (admission-control depth)
	jobs   map[string]*Job
	// byTrace maps a trace id to the job that owns it (GET
	// /v1/traces/{id}); pruned together with the job history.
	byTrace map[string]string
	nextID  int
	running int
	closed  bool
	counts  map[string]int // submissions per algorithm
	engines map[string]int // submissions per execution engine
	// nativeWallSeconds accumulates the measured wall-clock of
	// completed native runs (the /metrics
	// chaos_native_wall_seconds_total counter); cache hits never ran,
	// so they add nothing.
	nativeWallSeconds float64
	// spillBytes / spillFiles accumulate the out-of-core spill traffic
	// of completed native runs (the /metrics chaos_spill_*_total
	// counters); like nativeWallSeconds, cache hits add nothing.
	spillBytes int64
	spillFiles int
	// queueWait (submit to start, per started job) and jobWall (start to
	// done, by engine, per completed run) are the /metrics latency
	// histograms, pre-seeded so the first scrape sees zeros; the map is
	// read-only after newScheduler.
	queueWait *histogram
	jobWall   map[string]*histogram
	wg        sync.WaitGroup

	// events fans state transitions and progress ticks out to SSE
	// subscribers; it has its own lock and never blocks publishers.
	events *eventHub

	// onUpdate, when set (before any submission), observes every state
	// transition with s.mu held — the service journals them through it.
	// Holding the lock keeps the journal in transition order.
	onUpdate func(*Job)
	// hydrate, when set, looks up the stored (result, report) of a job's
	// key: it lazily reloads the payload of a done job that did not
	// survive in memory (a job restored from the journal), and answers a
	// restarted job whose run finished before the crash. It may read the
	// disk result store.
	hydrate func(graph, algorithm string, opt chaos.Options) (*chaos.Result, *chaos.Report, bool)
}

// noteLocked reports a state transition to the service and to event
// subscribers; callers hold s.mu.
func (s *Scheduler) noteLocked(j *Job) {
	if s.onUpdate != nil {
		s.onUpdate(j)
	}
	s.events.publish(j.ID, EventState, j.view().stripped())
}

// transitionLocked steps a job's record through ev now, publishes the
// view a running job's ticks copy, and reports the transition; callers
// hold s.mu.
func (s *Scheduler) transitionLocked(j *Job, ev jobEvent) {
	j.step(ev, time.Now().UTC())
	if j.State == JobRunning {
		v := j.view().stripped()
		j.runView.Store(&v)
	}
	s.noteLocked(j)
}

// NoteProgress files an engine progress tick against a running job:
// the job's live snapshot is replaced (lock-free — ticks arrive at
// every simulated iteration boundary) and subscribers get an event.
// Ordering with state events is inherent: ticks happen strictly inside
// the run, after the running transition and before the terminal one.
func (s *Scheduler) NoteProgress(j *Job, p chaos.Progress) {
	j.progress.Store(&p)
	v := *j.runView.Load()
	v.Progress = &p
	s.events.publish(j.ID, EventProgress, v)
}

// Subscribe streams a job's state transitions and progress ticks; see
// eventHub.subscribe for the channel contract.
func (s *Scheduler) Subscribe(id string) (<-chan JobEvent, func()) {
	return s.events.subscribe(id)
}

// maxJobHistory bounds the finished-job history: once more jobs exist,
// the oldest finished ones are evicted (queued and running jobs never
// are), so an always-on server does not grow without bound.
const maxJobHistory = 10000

// newScheduler builds a pool of cfg.Workers workers feeding jobs through
// run, admitting at most cfg.MaxQueue queued jobs and sharing
// cfg.ComputeBudget, which open has resolved; start launches them.
func newScheduler(cfg Config, run runFunc) *Scheduler {
	s := &Scheduler{
		run:           run,
		workers:       cfg.Workers,
		retain:        maxJobHistory,
		maxQueue:      cfg.MaxQueue,
		computeBudget: cfg.ComputeBudget,
		jobs:          make(map[string]*Job),
		byTrace:       make(map[string]string),
		counts:        make(map[string]int),
		engines:       make(map[string]int),
		queueWait:     newHistogram(latencyBuckets),
		jobWall:       newHistograms(chaos.EngineSim, chaos.EngineNative),
		events:        newEventHub(),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// start launches the worker pool.
func (s *Scheduler) start() {
	s.wg.Add(s.workers)
	for i := 0; i < s.workers; i++ {
		go s.worker()
	}
}

// ErrShuttingDown is returned by Submit after Shutdown has begun.
var ErrShuttingDown = fmt.Errorf("service: shutting down")

// QueueFullError reports a submission rejected by admission control:
// the queue already holds MaxQueue jobs. The HTTP layer answers 429
// with a Retry-After derived from the backlog.
type QueueFullError struct {
	Depth   int // queued jobs at rejection time
	Max     int
	Workers int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: job queue is full (%d queued, max %d); retry later", e.Depth, e.Max)
}

// RetryAfterSeconds estimates when a retry could be admitted. Job
// durations are unknowable up front (they depend on graph size and
// options), so this is deliberately a coarse backlog-per-worker
// heuristic, never less than a second.
func (e *QueueFullError) RetryAfterSeconds() int {
	w := e.Workers
	if w < 1 {
		w = 1
	}
	retry := e.Depth / w
	if retry < 1 {
		retry = 1
	}
	if retry > 60 {
		retry = 60
	}
	return retry
}

// pruneLocked evicts the oldest finished jobs beyond the retention cap
// and moves next back over the evicted jobs a worker had passed;
// callers hold s.mu.
func (s *Scheduler) pruneLocked() {
	excess := len(s.order) - s.retain
	if excess <= 0 {
		return
	}
	kept, next := s.order[:0], 0
	for i, j := range s.order {
		if excess > 0 && j.State.terminal() {
			delete(s.jobs, j.ID)
			if s.byTrace[j.TraceID] == j.ID {
				delete(s.byTrace, j.TraceID)
			}
			excess--
			continue
		}
		if i < s.next {
			next++
		}
		kept = append(kept, j)
	}
	clear(s.order[len(kept):]) // an evicted job is pinned nowhere
	s.order, s.next = kept, next
}

// admitLocked files a new job and steps it through its admission event
// (evSubmit or evCacheHit); callers hold s.mu.
func (s *Scheduler) admitLocked(ev jobEvent, graphID, alg string, opt chaos.Options) *Job {
	s.nextID++
	j := &Job{jobRecord: jobRecord{
		ID:        fmt.Sprintf("j%d", s.nextID),
		Graph:     graphID,
		Algorithm: alg,
		Options:   opt,
	}}
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.counts[alg]++
	s.engines[j.engine()]++
	s.pruneLocked() // the new job has no state yet, so is never evicted
	s.transitionLocked(j, ev)
	s.byTrace[j.TraceID] = j.ID
	return j
}

// Submit enqueues a job, rejecting it with *QueueFullError when
// admission control finds the queue at its bound.
func (s *Scheduler) Submit(graphID, alg string, opt chaos.Options) (JobView, error) {
	return s.SubmitTraced(nil, graphID, alg, opt)
}

// SubmitTraced is Submit rooted in the request span (nil
// derives a synthetic root from the job's options fingerprint).
func (s *Scheduler) SubmitTraced(root *obs.TreeSpan, graphID, alg string, opt chaos.Options) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, ErrShuttingDown
	}
	if s.maxQueue > 0 && s.queued >= s.maxQueue {
		return JobView{}, &QueueFullError{Depth: s.queued, Max: s.maxQueue, Workers: s.workers}
	}
	j := s.admitLocked(jobEvent{kind: evSubmit, root: root}, graphID, alg, opt)
	s.queued++
	s.cond.Signal()
	return j.view(), nil
}

// AdmitCachedTraced files an already-answered job (a result-cache hit)
// directly in the done state, so clients observe the same lifecycle
// either way. It is rooted in the request span; the trace
// tree records admission and an immediate done span (no queue, run or
// engine spans — nothing ran).
func (s *Scheduler) AdmitCachedTraced(root *obs.TreeSpan, graphID, alg string, opt chaos.Options, res *chaos.Result, rep *chaos.Report) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobView{}, ErrShuttingDown
	}
	j := s.admitLocked(jobEvent{kind: evCacheHit, root: root}, graphID, alg, opt)
	j.result, j.report = res, rep
	return j.view(), nil
}

// Get snapshots the job with the given id, lazily rehydrating the
// result payload of a journal-restored done job from the disk store.
func (s *Scheduler) Get(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, false
	}
	needsHydration := j.State == JobDone && j.result == nil && s.hydrate != nil
	v := j.view()
	s.mu.Unlock()
	if !needsHydration {
		return v, true
	}
	// Hydration reads the disk store; doing it under s.mu would stall
	// every worker transition and submission behind one HTTP GET. The
	// payload for a key is immutable, so filling it in after re-locking
	// cannot race to a wrong value (a concurrent Get at worst loads the
	// same blob twice).
	res, rep, ok := s.hydrate(v.Graph, v.Algorithm, j.Options)
	if !ok {
		return v, true // blob evicted or lost: the view just lacks a result
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.result == nil {
		j.result, j.report = res, rep
	}
	return j.view(), true
}

// List snapshots every job in submission order.
func (s *Scheduler) List() []JobView {
	return s.ListFiltered(JobFilter{})
}

// Peek snapshots a job payload-stripped, without the lazy disk-store
// hydration Get performs — the right form for event streams and other
// callers that would discard the Result/Report anyway (hydrating would
// read and pin a potentially large blob just to strip it). The second
// return is the event-hub sequence the snapshot is current as of:
// subscribers that attached before the Peek must discard buffered
// events at or below it, or they would replay pre-snapshot history
// (stale progress, earlier states) after the newer snapshot.
func (s *Scheduler) Peek(id string) (JobView, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, 0, false
	}
	// Seq before view would be equally correct for state (both are
	// under s.mu); for lock-free progress ticks the store-then-publish
	// order in NoteProgress means a tick not yet published when we read
	// the seq is already visible to view() — replayed, it is a
	// duplicate, never a regression.
	return j.view().stripped(), s.events.lastSeq(), true
}

// JobFilter selects and pages a job listing.
type JobFilter struct {
	// State keeps only jobs in this state ("" = all).
	State JobState
	// After resumes the listing just past this job id (exclusive
	// cursor). The id itself need not still exist — history eviction
	// may have removed it — because ids are ordered: jN sorts by N.
	After string
	// Limit caps the page size (0 = unlimited).
	Limit int
}

// ListFiltered snapshots jobs in submission order, restricted by f.
// Pagination protocol: pass the last id of one page as After for the
// next; a short (or empty) page means the listing is exhausted.
// Listing views are payload-stripped (no Result/Report): an unpaged
// listing of N done jobs must not serialize N full reports, and
// journal-restored done jobs would list null payloads anyway (listing
// never hydrates from the disk store). GET /v1/jobs/{id} serves the
// full payload.
func (s *Scheduler) ListFiltered(f JobFilter) []JobView {
	afterSeq := -1
	if f.After != "" {
		if seq, ok := jobSeq(f.After); ok {
			afterSeq = seq
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []JobView{}
	for _, j := range s.order {
		if afterSeq >= 0 {
			if seq, ok := jobSeq(j.ID); ok && seq <= afterSeq {
				continue
			}
		}
		if f.State != "" && j.State != f.State {
			continue
		}
		out = append(out, j.view().stripped())
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// jobSeq extracts the numeric part of a job id ("j42" -> 42). Ids are
// assigned from a single counter, so the sequence orders submissions
// even across restarts.
func jobSeq(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Cancel stops a job. A queued job moves to JobCanceled immediately; a
// running job gets its context canceled and stops at the simulation's
// next iteration boundary (the returned view still says "running" with
// canceling set — poll until the worker records the final state).
// Finished jobs are immutable and report a state conflict.
func (s *Scheduler) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, &notFoundError{what: "job", id: id}
	}
	switch j.State {
	case JobQueued:
		// The job stays in order as history; workers pass it.
		s.queued--
		s.transitionLocked(j, jobEvent{kind: evCancel})
	case JobRunning:
		if !j.Canceling { // idempotent: repeat cancels just re-report
			s.transitionLocked(j, jobEvent{kind: evCancel})
			j.cancel() // observed at the next iteration boundary
		}
	default:
		return j.view(), fmt.Errorf("service: job %s is already %s", id, j.State)
	}
	return j.view(), nil
}

// worker runs queued jobs, oldest first, until shutdown.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queued == 0 { // closed: Shutdown canceled the backlog
			s.mu.Unlock()
			return
		}
		for s.order[s.next].State != JobQueued { // running, canceled or answered
			s.next++
		}
		j := s.order[s.next]
		s.next++
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		s.running++
		s.queued--
		// Split the host compute budget across the concurrency this job
		// will actually see: the jobs running now plus the backlog that
		// will run beside it, capped at the pool size. A lone job on an
		// idle pool gets the whole budget; a burst divides it so the
		// shares of jobs started under load sum to at most the budget —
		// instead of every job defaulting to GOMAXPROCS and
		// oversubscribing the host N×. A simulation's pool is fixed at
		// start, so shares are never rebalanced mid-run: a job started
		// alone briefly overlaps later arrivals above the budget, and that
		// is the accepted trade against idling the whole machine between
		// bursts. ComputeWorkers only trades wall-clock — results are
		// bit-identical for every value — so the share is free to vary
		// run to run. s.queued counts only jobs that will run, so a
		// canceled one dilutes no share.
		concurrency := min(s.running+s.queued, s.workers)
		j.computeShare = max(s.computeBudget/concurrency, 1)
		// The run span opens; the engine flight recording parents under
		// it at serve time.
		s.transitionLocked(j, jobEvent{kind: evStart})
		s.queueWait.observe(j.StartedAt.Sub(j.EnqueuedAt).Seconds())
		s.mu.Unlock()

		// A crash-re-enqueued job may have finished before the crash
		// with only its done record lost in the fsync-batching window;
		// its fsynced result blob then answers without running. Fresh
		// submissions were already cache-checked at admission, so only
		// restarted jobs pay this lookup.
		var (
			res *chaos.Result
			rep *chaos.Report
			err error
			hit bool
		)
		if j.Restarts > 0 && s.hydrate != nil {
			res, rep, hit = s.hydrate(j.Graph, j.Algorithm, j.Options)
		}
		ran := !hit
		if ran {
			res, rep, err = s.run(ctx, j)
		}
		cancel()

		s.mu.Lock()
		s.running--
		j.cancel = nil
		if err == nil {
			j.result, j.report = res, rep
		}
		s.transitionLocked(j, jobEvent{kind: evFinish, err: err})
		// A job answered from the store ran nothing here: its report's
		// WallSeconds belongs to the run that produced the blob.
		if err == nil && ran {
			if rep != nil && rep.Engine == chaos.EngineNative {
				s.nativeWallSeconds += rep.WallSeconds
				s.spillBytes += rep.SpillBytes
				s.spillFiles += rep.SpillFiles
			}
			// Engines outside the pre-seeded pair never pass Submit.
			if h, ok := s.jobWall[j.engine()]; ok {
				h.observe(j.FinishedAt.Sub(j.StartedAt).Seconds())
			}
		}
		s.mu.Unlock()
	}
}

// CloseEventStreams disconnects every event subscriber and refuses new
// ones. The HTTP front end registers it as an on-shutdown hook: an SSE
// stream is never idle as far as the HTTP server can tell, so without
// this a single attached viewer would hold the entire drain budget.
func (s *Scheduler) CloseEventStreams() { s.events.closeAll() }

// Shutdown stops accepting submissions, cancels still-queued jobs,
// disconnects event subscribers, and waits for the running ones to
// drain (or ctx to expire).
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.events.closeAll()
	s.mu.Lock()
	s.closed = true
	for _, j := range s.order[s.next:] {
		if j.State == JobQueued {
			s.queued--
			s.transitionLocked(j, jobEvent{kind: evCancel, detail: "canceled at shutdown before running"})
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown timed out with jobs still running: %w", ctx.Err())
	}
}

// stats fills the scheduler's section of /v1/stats: the pool, the queue,
// the job counts and the completed runs' native counters.
func (s *Scheduler) stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:           s.workers,
		Running:           s.running,
		QueueDepth:        s.queued,
		Jobs:              make(map[string]int),
		PerAlgorithm:      maps.Clone(s.counts),
		PerEngine:         maps.Clone(s.engines),
		NativeWallSeconds: s.nativeWallSeconds,
		SpillBytes:        s.spillBytes,
		SpillFiles:        s.spillFiles,
	}
	for _, j := range s.jobs {
		st.Jobs[string(j.State)]++
	}
	return st
}
