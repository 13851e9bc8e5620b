package service

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"chaos"
	"chaos/internal/core/drive"
	"chaos/internal/durable"
	"chaos/internal/obs"
)

// Journal record kinds. The on-disk layout under Config.DataDir:
//
//	wal/journal-<seq>.wal   append-only record segments (durable.Journal)
//	wal/snapshot.json       latest compacting snapshot (serviceSnapshot)
//	results/<k[:2]>/<key>   content-addressed result blobs (storedResult)
//	uploads/<name>.edges    uploaded edge-list payloads (chaos-gen binary),
//	                        named at random: a graph's record holds its path
//
// Unknown kinds are skipped on replay, so older binaries tolerate
// journals written by newer ones. That covers the "result" record older
// binaries appended for every stored blob: the store re-indexes its own
// directory, so recovery never read it.
const (
	recGraph = "graph" // graphRecord: a registration (spec, not edge bytes)
	recJob   = "job"   // jobRecord: full job state at a transition (upsert)
)

// graphRecord is a graph's durable state, the journaled form of its
// registration: Graph embeds it, and the record is appended in the
// critical section that files the graph (Catalog.file). Edge bytes are
// never journaled: generated graphs are deterministic functions of
// (type, scale/pages, seed), and uploads persist their payload under
// uploads/ with only the path recorded here.
type graphRecord struct {
	ID         string    `json:"id"`
	Type       string    `json:"type"`
	Scale      int       `json:"scale,omitempty"`
	Pages      uint64    `json:"pages,omitempty"`
	Seed       int64     `json:"seed,omitempty"`
	Registered time.Time `json:"registered"`
	// SpecWeighted and DeclaredVertices are the request's Weighted and
	// Vertices, which reproduce the edge records (generation's and
	// graph.FormatFor's inputs); Weighted/Vertices/EdgeCount are the
	// effective metadata served without materializing.
	SpecWeighted     bool   `json:"specWeighted,omitempty"`
	DeclaredVertices uint64 `json:"declaredVertices,omitempty"`
	Weighted         bool   `json:"weighted"`
	Vertices         uint64 `json:"vertices"`
	EdgeCount        int    `json:"edges"`
	Upload           string `json:"upload,omitempty"` // data-dir-relative payload path
}

// jobRecord is a job's durable state: Job embeds it, jobRecord.step
// makes every transition, and the journal gets the whole record at each
// one — not a delta — so replay is an idempotent upsert: the last record
// wins, and a record that also made it into a snapshot is harmless to
// reapply.
type jobRecord struct {
	ID        string        `json:"id"`
	Graph     string        `json:"graph"`
	Algorithm string        `json:"algorithm"`
	Options   chaos.Options `json:"options"`
	State     JobState      `json:"state"`
	// Canceling marks a running job whose cancellation the API already
	// accepted; recovery honors it by restoring the job as canceled
	// instead of re-enqueuing it.
	Canceling  bool      `json:"canceling,omitempty"`
	Error      string    `json:"error,omitempty"`
	CacheHit   bool      `json:"cacheHit,omitempty"`
	Restarts   int       `json:"restarts,omitempty"`
	EnqueuedAt time.Time `json:"enqueuedAt"`
	StartedAt  time.Time `json:"startedAt,omitzero"`
	FinishedAt time.Time `json:"finishedAt,omitzero"`
	// Trace state: the job's trace identity and its lifecycle span list
	// (full copy, like the rest of the record — replay is an upsert).
	// Journaling the spans is what makes GET /v1/jobs/{id}/trace serve a
	// complete lifecycle tree even after a SIGKILL-restart; engine spans
	// stay execution-scoped and are never persisted. Records journaled
	// before tracing existed lack them until recovery roots them.
	TraceID string         `json:"traceId,omitempty"`
	SpanSeq uint64         `json:"spanSeq,omitempty"`
	Spans   []obs.TreeSpan `json:"spans,omitempty"`
}

// serviceSnapshot is the compacting snapshot: the full durable state at
// capture time. Replay applies it first, then the surviving journal
// records on top.
type serviceSnapshot struct {
	SavedAt     time.Time     `json:"savedAt"`
	NextGraphID int           `json:"nextGraphID"`
	NextJobID   int           `json:"nextJobID"`
	Graphs      []graphRecord `json:"graphs"`
	Jobs        []jobRecord   `json:"jobs"`
}

// persistence bundles the durable machinery behind a Service with a
// data dir. A Service without one has a nil *persistence.
type persistence struct {
	dataDir       string
	wal           *durable.WAL
	store         *durable.ResultStore
	snapshotEvery int
	compacting    atomic.Bool
	// err is the first persistence failure (sticky, reported in Stats):
	// the service keeps serving from memory, but durability is gone and
	// operators need to see that.
	err atomic.Value // string
}

// openPersistence opens the data dir's WAL, reporting its operations to
// trace, and its result store.
func openPersistence(cfg Config, trace durable.SpanHook) (*persistence, *durable.Recovered, error) {
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "uploads"), 0o755); err != nil {
		return nil, nil, err
	}
	wal, rec, err := durable.OpenWAL(filepath.Join(cfg.DataDir, "wal"), trace)
	if err != nil {
		return nil, nil, err
	}
	store, err := durable.OpenResultStore(filepath.Join(cfg.DataDir, "results"), cfg.ResultStoreMaxBytes)
	if err != nil {
		wal.Close()
		return nil, nil, err
	}
	return &persistence{
		dataDir:       cfg.DataDir,
		wal:           wal,
		store:         store,
		snapshotEvery: cfg.SnapshotEvery,
	}, rec, nil
}

// note records a persistence failure without failing the request path.
func (p *persistence) note(err error) {
	if err != nil {
		p.err.CompareAndSwap(nil, err.Error())
	}
}

// failed notes err, a registration the log could not take, and returns
// it for the request to answer with.
func (p *persistence) failed(err error) error {
	p.note(err)
	return &persistError{err}
}

// persistError is a registration the durable log could not take: the
// service's fault, not the request's, so the HTTP layer answers 500.
type persistError struct{ err error }

func (e *persistError) Error() string {
	return "service: persisting graph registration: " + e.err.Error()
}

func (e *persistError) Unwrap() error { return e.err }

// lastError returns the sticky persistence failure, "" when healthy.
func (p *persistence) lastError() string {
	if s, ok := p.err.Load().(string); ok {
		return s
	}
	return ""
}

// recover rebuilds the service's state from what the WAL found:
// snapshot first, then journal records as idempotent upserts. Jobs that
// were queued or running at crash time are re-enqueued (the engine is
// deterministic, so a rerun reproduces the lost run exactly — usually
// as a disk-cache hit); jobs whose graph cannot be recovered are failed
// with a restart reason.
func (s *Service) recover(rec *durable.Recovered) error {
	var snap serviceSnapshot
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return fmt.Errorf("service: decoding snapshot: %w", err)
		}
	}

	// Graphs file as they are met, snapshot first, and stay cold until a
	// job needs their edges. A record whose id is filed already (the
	// snapshot holds it around a compaction) conflicts and is skipped.
	s.catalog.nextID = max(0, snap.NextGraphID) // nothing else runs yet
	restore := func(gr graphRecord) {
		s.catalog.file(&Graph{graphRecord: gr, bins: drive.NewBinStore()}, nil)
	}
	for _, gr := range snap.Graphs {
		restore(gr)
	}
	jobs := snap.Jobs
	jobIdx := make(map[string]int, len(jobs))
	for i, j := range jobs {
		jobIdx[j.ID] = i
	}

	for _, r := range rec.Records {
		switch r.Kind {
		case recGraph:
			var gr graphRecord
			if err := json.Unmarshal(r.Data, &gr); err != nil {
				return fmt.Errorf("service: decoding graph record: %w", err)
			}
			restore(gr)
		case recJob:
			var jr jobRecord
			if err := json.Unmarshal(r.Data, &jr); err != nil {
				return fmt.Errorf("service: decoding job record: %w", err)
			}
			if i, ok := jobIdx[jr.ID]; ok {
				// Last record wins — except that a snapshot captured
				// after this record was appended may already hold a
				// LATER state (the compaction overlap window). A
				// terminal state never regresses.
				if jobs[i].State.terminal() && !jr.State.terminal() {
					continue
				}
				jobs[i] = jr
				continue
			}
			jobIdx[jr.ID] = len(jobs)
			jobs = append(jobs, jr)
		default:
			// Forward compatibility: skip kinds this binary predates.
		}
	}

	// Scheduler: restore history, re-enqueue interrupted work.
	sort.SliceStable(jobs, func(i, k int) bool {
		a, _ := jobSeq(jobs[i].ID)
		b, _ := jobSeq(jobs[k].ID)
		return a < b
	})
	s.restoreJobs(jobs, snap.NextJobID)
	return nil
}

// maxRestarts is how many times crash recovery re-enqueues one job
// before it gives the job up as failed.
const maxRestarts = 3

// restoreJobs files recovered job records with the scheduler: each one
// steps through evRestart, which leaves terminal jobs as history (results
// rehydrate lazily from the disk store), honours an accepted cancel, fails
// a job whose graph is gone or that has been through maxRestarts restarts,
// and queues the rest again. Jobs recovery changed are re-journaled so the
// log reflects the requeue or failure.
func (s *Service) restoreJobs(recs []jobRecord, nextID int) {
	sc := s.scheduler
	now := time.Now().UTC()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	maxSeq := nextID
	for _, r := range recs {
		if _, dup := sc.jobs[r.ID]; dup {
			continue
		}
		j := &Job{jobRecord: r}
		_, graphKnown := s.catalog.Get(j.Graph)
		wasTerminal := j.State.terminal()
		j.step(jobEvent{kind: evRestart, graphKnown: graphKnown, maxRestarts: maxRestarts}, now)
		if j.State == JobQueued {
			// Re-enqueues bypass admission control: a job the API
			// already accepted must not be dropped by MaxQueue.
			sc.queued++
		}
		sc.jobs[j.ID] = j
		sc.byTrace[j.TraceID] = j.ID
		sc.order = append(sc.order, j)
		sc.counts[j.Algorithm]++
		sc.engines[j.engine()]++ // pre-engine records fold to "sim"
		if seq, ok := jobSeq(j.ID); ok && seq > maxSeq {
			maxSeq = seq
		}
		if !wasTerminal {
			sc.noteLocked(j)
		}
	}
	sc.nextID = maxSeq
	sc.pruneLocked()
	sc.cond.Broadcast()
}

// noteJob is the scheduler's transition hook: journal every state
// change (called with the scheduler mutex held, which keeps the journal
// in transition order; the append is a buffered write, fsync is
// batched). It also drives the snapshot policy.
func (s *Service) noteJob(j *Job) {
	s.persist.note(s.persist.wal.Append(recJob, &j.jobRecord))
	s.maybeCompact()
}

// persistGraph files a fresh registration durably. An upload's payload
// is written and fsynced first, under a name of its own (the graph's id
// is settled only as it is filed); the catalog then files the graph in
// the critical section that journals it, and the journal is synced
// before the client sees 201, unfiling the graph if that fails: a graph
// the API acknowledged must never vanish.
func (s *Service) persistGraph(g *Graph, payload []byte) error {
	p := s.persist
	var path string
	if g.Type == "upload" {
		g.Upload = filepath.Join("uploads", rand.Text()+".edges")
		path = filepath.Join(p.dataDir, g.Upload)
		if err := durable.WriteFileAtomic(path, payload); err != nil {
			return p.failed(err)
		}
	}
	if err := s.catalog.file(g, s.journalGraph); err != nil {
		if path != "" {
			os.Remove(path) // no record names it
		}
		return err
	}
	if err := p.wal.Sync(); err != nil {
		s.catalog.remove(g.ID)
		return p.failed(err)
	}
	s.maybeCompact()
	return nil
}

// journalGraph appends a registration's record; the catalog calls it
// with its lock held, as the scheduler calls noteJob.
func (s *Service) journalGraph(r *graphRecord) error {
	if err := s.persist.wal.Append(recGraph, r); err != nil {
		return s.persist.failed(err)
	}
	return nil
}

// persistResult makes a finished run durable: the store writes and
// fsyncs its blob. Runs on the worker goroutine that computed the
// result, off every lock.
func (s *Service) persistResult(key string, res *chaos.Result, rep *chaos.Report) {
	p := s.persist
	data, err := json.Marshal(storedResult{Result: res, Report: rep})
	if err != nil {
		p.note(err)
		return
	}
	p.note(p.store.Put(key, data))
}

// maybeCompact kicks off a background snapshot once the journal has
// accumulated SnapshotEvery records. Single-flight; the snapshot runs
// off the request path (see durable.WAL.Compact for why appends may
// proceed concurrently).
func (s *Service) maybeCompact() {
	p := s.persist
	if p.wal.AppendedSinceCompact() < p.snapshotEvery {
		return
	}
	if !p.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer p.compacting.Store(false)
		p.note(p.wal.Compact(s.captureSnapshot))
	}()
}

// captureSnapshot freezes the full durable state. Called by the WAL
// after rotating the journal; takes the catalog and scheduler locks.
func (s *Service) captureSnapshot() (any, error) {
	snap := serviceSnapshot{SavedAt: time.Now().UTC()}
	c := s.catalog
	c.mu.RLock()
	snap.NextGraphID = c.nextID
	for _, id := range c.order {
		snap.Graphs = append(snap.Graphs, c.graphs[id].graphRecord)
	}
	c.mu.RUnlock()
	sc := s.scheduler
	sc.mu.Lock()
	snap.NextJobID = sc.nextID
	for _, j := range sc.order {
		r := j.jobRecord
		r.Spans = slices.Clone(r.Spans) // encoded after the lock is released
		snap.Jobs = append(snap.Jobs, r)
	}
	sc.mu.Unlock()
	return snap, nil
}
