// Package service turns the chaos library into a long-lived
// graph-analytics job service: an always-on process that amortizes graph
// ingestion across runs and executes independent jobs concurrently.
//
// Three pieces cooperate:
//
//   - the Catalog registers graphs once (R-MAT/webgraph generation
//     parameters or an uploaded chaos-gen binary edge list), holds each
//     as its §8 edge records, reads the undirected and augmented views
//     the algorithms consume through them, and keeps, per view, the
//     native engine's edge bins, so repeated jobs skip pre-processing;
//   - the Scheduler runs submitted jobs on a bounded worker pool (N
//     concurrent simulations, each itself a multi-core cluster model)
//     with queued/running/done/failed states and cancellation;
//   - a content-addressed result cache keyed on (graph, algorithm,
//     canonicalized Options) serves identical requests from memory.
//
// Service wires them behind a JSON HTTP API (see Handler) with graceful
// shutdown that drains running jobs. cmd/chaos-serve is the binary front
// end; README.md documents the endpoints with curl examples.
package service

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"chaos"
	"chaos/internal/durable"
	"chaos/internal/obs"
)

// Config parameterizes a Service.
type Config struct {
	// Workers bounds the number of concurrently running simulations
	// (default 4). Each simulation models a whole cluster, so a small
	// pool saturates the host.
	Workers int
	// BaseOptions is merged under every job's options: fields the job
	// request leaves at zero fall back to these (used by chaos-serve to
	// set lab-scale chunk sizes, and by tests).
	BaseOptions chaos.Options
	// MaxQueue bounds the number of queued (not yet running) jobs —
	// the admission control that keeps a traffic burst from growing the
	// queue without bound. Submissions past it fail with *QueueFullError
	// (HTTP 429 + Retry-After). 0 = unbounded.
	MaxQueue int
	// ComputeBudget is the total engine compute workers shared across
	// concurrently running jobs (0 or less: GOMAXPROCS): a job that does
	// not pin Options.ComputeWorkers starts with the budget divided by
	// the concurrency it will run beside (running + backlog, capped at
	// Workers), so N concurrent simulations stop oversubscribing the
	// host N×. Every job keeps a floor of one worker, so a pool wider
	// than the budget still runs Workers jobs at one worker each.
	ComputeBudget int
	// MaxUploadBytes bounds POST /v1/graphs request bodies (default
	// 64 MiB). Graph uploads carry whole edge lists, so they get a far
	// larger cap than the other endpoints' 1 MB.
	MaxUploadBytes int64
	// DataDir, when non-empty, makes the service durable: graph
	// registrations, job transitions and results are journaled under
	// it and recovered on the next Open (see internal/durable and
	// DESIGN.md). Empty means today's purely in-memory service.
	DataDir string
	// SnapshotEvery compacts the journal into a snapshot after this
	// many records (default 1024; needs DataDir).
	SnapshotEvery int
	// ResultStoreMaxBytes bounds the disk result store; the least
	// recently used blobs are evicted past it (0 = unbounded; needs
	// DataDir).
	ResultStoreMaxBytes int64
	// Logger, when set, makes the HTTP layer emit one structured line
	// per request (request id, method, path, matched route, status,
	// bytes, duration, remote). Nil keeps the handler silent — latency
	// histograms are recorded either way.
	Logger *slog.Logger
	// TraceSpanCap bounds the per-job flight recorder: each run keeps
	// at most this many spans, dropping the oldest past it (default
	// 8192). The recorder is observational-only — see chaos.WithTrace.
	TraceSpanCap int
}

// Service is the graph-analytics job service.
type Service struct {
	cfg       Config
	catalog   *Catalog
	scheduler *Scheduler
	cache     *resultCache

	// httpDur holds the request-duration histograms by mux route pattern
	// plus routeUnmatched; the scheduler keeps the job histograms.
	httpDur map[string]*histogram

	persist *persistence // nil without Config.DataDir
	// spillDir is the parent directory handed to native out-of-core runs
	// (chaos.WithSpillDir); "" without a data dir (the OS temp dir is
	// used). Swept clean on Open so a crash mid-run never leaks spill
	// files across restarts.
	spillDir string
	// walSpans retains the durability tier's recent operation spans
	// (append/fsync/rotate/snapshot, reported by the hook the WAL is
	// opened with); the trace endpoint merges the ones overlapping a
	// job's lifetime into its tree. Nil without a data dir.
	walSpans *obs.Ring[durable.Span]
	// slabs is lent to every job the service executes, on both engines
	// (chaos.WithSlabStore): a job takes its update-record slabs from
	// the ones earlier jobs gave back before it allocates.
	slabs     *chaos.SlabStore
	closeOnce sync.Once
}

// maxCacheEntries bounds the result cache; the oldest entries are
// evicted first.
const maxCacheEntries = 4096

// walSpanCap bounds the retained WAL operation spans; old spans fall
// off first, which only thins the WAL tier of very old traces.
const walSpanCap = 4096

// New starts an in-memory Service with its worker pool running. It is
// Open for configurations that cannot fail; a Config with a DataDir
// should use Open directly (New panics on persistence errors).
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic(err) // unreachable without DataDir: no IO happens
	}
	return s
}

// Open starts a Service. With cfg.DataDir set it opens the durable
// state under it, recovers graphs and job history from the snapshot and
// journal, and re-enqueues whatever was queued or running when the last
// process died; jobs that cannot be recovered are marked failed with a
// restart reason.
func Open(cfg Config) (*Service, error) {
	s, err := open(cfg)
	if err != nil {
		return nil, err
	}
	s.scheduler.start()
	return s, nil
}

// open is Open up to starting the worker pool: the durable state is
// recovered and re-enqueued work waits in the queue, but nothing runs.
func open(cfg Config) (*Service, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 64 << 20
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 1024
	}
	if cfg.TraceSpanCap <= 0 {
		cfg.TraceSpanCap = 8192
	}
	if cfg.ComputeBudget <= 0 {
		cfg.ComputeBudget = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		cfg:     cfg,
		catalog: NewCatalog(),
		slabs:   chaos.NewSlabStore(),
	}
	// Every route's series exists from the first scrape.
	s.httpDur = newHistograms(append(s.routePatterns(), routeUnmatched)...)
	var recovered *durable.Recovered
	if cfg.DataDir != "" {
		// The WAL reports its operations as observational spans into a
		// bounded ring (never back into the journal; see durable.SpanHook).
		s.walSpans = obs.NewRing[durable.Span](walSpanCap)
		p, rec, err := openPersistence(cfg, s.walSpans.Record)
		if err != nil {
			return nil, fmt.Errorf("service: opening data dir %s: %w", cfg.DataDir, err)
		}
		s.persist = p
		recovered = rec
		// Out-of-core spill files live under the data dir so a crashed
		// run's orphans are found and removed at the next boot (a live
		// run deletes its own temp dir on completion, interruption or
		// rollback; only a process death can leave one behind).
		s.spillDir = filepath.Join(cfg.DataDir, "spill")
		if err := os.RemoveAll(s.spillDir); err != nil {
			return nil, fmt.Errorf("service: sweeping spill dir: %w", err)
		}
		if err := os.MkdirAll(s.spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: creating spill dir: %w", err)
		}
		s.cache = newResultCache(maxCacheEntries, p.store)
	} else {
		s.cache = newResultCache(maxCacheEntries, nil)
	}
	s.scheduler = newScheduler(cfg, s.execute)
	if s.persist != nil {
		// Hooks before recovery: requeue/failure transitions during
		// recovery must hit the journal too. The lazy result hydrator
		// serves GETs of pre-crash done jobs from the disk store, and
		// answers restarted jobs whose blob outlived their done record.
		s.scheduler.onUpdate = s.noteJob
		s.scheduler.hydrate = func(graphID, alg string, opt chaos.Options) (*chaos.Result, *chaos.Report, bool) {
			return s.cache.lookup(cacheKey(graphID, alg, opt))
		}
		if err := s.recover(recovered); err != nil {
			s.persist.wal.Close()
			return nil, err
		}
	}
	return s, nil
}

// execute runs one job to completion on a worker goroutine: resolve the
// graph (re-materializing it if it was restored from the journal), take
// the source of its edge view, run the algorithm — canceling at iteration
// boundaries once ctx is canceled — and populate the result cache (and,
// when durable, the disk result store) on success.
func (s *Service) execute(ctx context.Context, job *Job) (*chaos.Result, *chaos.Report, error) {
	g, ok := s.catalog.Get(job.Graph)
	if !ok {
		return nil, nil, fmt.Errorf("service: graph %q disappeared", job.Graph)
	}
	if err := g.ensure(s.cfg.DataDir); err != nil {
		return nil, nil, err
	}
	view, err := chaos.ViewFor(job.Algorithm)
	if err != nil {
		return nil, nil, err
	}
	// Live progress: the engine reports at every iteration boundary (the
	// Interrupt boundary), the scheduler keeps the latest snapshot for
	// job views and fans ticks out to SSE subscribers. Subscribing
	// cannot change the run (see chaos.WithProgress).
	ctx = chaos.WithProgress(ctx, func(p chaos.Progress) {
		s.scheduler.NoteProgress(job, p)
	})
	// Flight recorder: every executed job records its per-phase span
	// stream into a bounded ring served by GET /v1/jobs/{id}/trace.
	// Like progress, attaching it cannot change the run (see
	// chaos.WithTrace); cache-answered jobs never reach here and stay
	// recorder-less.
	rec := chaos.NewTraceRecorder(s.cfg.TraceSpanCap)
	job.trace.Store(rec)
	ctx = chaos.WithTrace(ctx, rec.Record)
	if s.spillDir != "" {
		// Native out-of-core runs spill under the data dir (swept on
		// boot) instead of the OS temp dir.
		ctx = chaos.WithSpillDir(ctx, s.spillDir)
	}
	// Update records come from the slabs earlier jobs gave back. Like the
	// spill dir, the store cannot change the run (see
	// chaos.WithSlabStore).
	ctx = chaos.WithSlabStore(ctx, s.slabs)
	opt := job.Options
	if opt.ComputeWorkers == 0 {
		// The job did not pin its host parallelism: run it on its share
		// of the scheduler's compute budget instead of the GOMAXPROCS
		// default, which would oversubscribe the host by the number of
		// running jobs. Does not touch job.Options: the cache key and the
		// journal keep the submitted options.
		opt.ComputeWorkers = job.computeShare
	}
	src := g.source(view)
	if job.engine() == chaos.EngineNative {
		// Native runs borrow the view's pre-processing output from the
		// graph, built by the first run of each bin key. Like the spill
		// dir, it cannot change the run (see chaos.WithBinCache).
		ctx = chaos.WithBinCache(ctx, g.bins.Bind(src))
	}
	res, rep, err := chaos.RunSourceContext(ctx, job.Algorithm, src, g.Vertices, opt)
	if err != nil {
		return nil, nil, err
	}
	key := cacheKey(job.Graph, job.Algorithm, job.Options)
	s.cache.store(key, res, rep)
	if s.persist != nil {
		// The blob is fsynced before the scheduler journals the done
		// transition after this returns, so a done job's result survives
		// any crash. The write is the job's durability checkpoint, so it
		// becomes a span under the run.
		start := time.Now().UTC()
		s.persistResult(key, res, rep)
		s.scheduler.NoteJobSpan(job, "checkpoint", "result blob persisted", start, time.Since(start))
	}
	return res, rep, nil
}

// RegisterGraph materializes and files a graph, and — when durable —
// journals the registration as it files it (upload payloads land as
// files under the data dir, generated graphs as their spec) and syncs
// it before acknowledging it.
func (s *Service) RegisterGraph(spec GraphSpec) (*Graph, error) {
	if s.persist == nil {
		return s.catalog.Register(spec)
	}
	g, err := s.catalog.build(spec)
	if err != nil {
		return nil, err
	}
	if err := s.persistGraph(g, spec.Data); err != nil {
		return nil, err
	}
	return g, nil
}

// Submit enqueues a job for graph id, serving it from the result cache
// when an identical (graph, algorithm, canonical options) run has already
// completed. The algorithm name must be canonical (see chaos.ParseAlgorithm).
func (s *Service) Submit(graphID, algorithm string, opt chaos.Options) (JobView, error) {
	return s.SubmitCtx(context.Background(), graphID, algorithm, opt)
}

// SubmitCtx is Submit carrying the caller's context: when the HTTP
// middleware attached a request trace to it, the job's trace tree
// roots in that request (and in the caller's inbound traceparent, when
// one was sent). The context carries only observational trace state —
// cancellation and deadlines are the job's own affair once admitted.
func (s *Service) SubmitCtx(ctx context.Context, graphID, algorithm string, opt chaos.Options) (JobView, error) {
	g, ok := s.catalog.Get(graphID)
	if !ok {
		return JobView{}, &notFoundError{what: "graph", id: graphID}
	}
	if _, err := chaos.ViewFor(algorithm); err != nil {
		return JobView{}, err
	}
	if chaos.NeedsWeights(algorithm) && !g.Weighted {
		// chaos-run guards this by generating weights on demand; with a
		// registered graph the edge set is fixed, so running a
		// weight-consuming algorithm would silently produce (and cache)
		// all-zero distances/weights.
		return JobView{}, fmt.Errorf("service: %s needs edge weights but graph %q is unweighted", algorithm, g.ID)
	}
	opt = mergeOptions(s.cfg.BaseOptions, opt)
	// Reject now what the engine would reject at start: an accepted job
	// that can only fail costs a queue slot and reports its reason late.
	if err := opt.Validate(); err != nil {
		return JobView{}, err
	}
	root := requestSpan(ctx)
	if res, rep, ok := s.cache.lookup(cacheKey(g.ID, algorithm, opt)); ok {
		return s.scheduler.AdmitCachedTraced(root, g.ID, algorithm, opt, res, rep)
	}
	return s.scheduler.SubmitTraced(root, g.ID, algorithm, opt)
}

// mergeOptions fills zero-valued fields of opt from base. Only the knobs
// a serving deployment plausibly pins are merged: hardware sizing, chunk
// geometry and latency scale.
func mergeOptions(base, opt chaos.Options) chaos.Options {
	if opt.Machines == 0 {
		opt.Machines = base.Machines
	}
	if opt.Cores == 0 {
		opt.Cores = base.Cores
	}
	if opt.ChunkBytes == 0 {
		opt.ChunkBytes = base.ChunkBytes
	}
	if opt.VertexChunkBytes == 0 {
		opt.VertexChunkBytes = base.VertexChunkBytes
	}
	if opt.MemBudgetBytes == 0 {
		opt.MemBudgetBytes = base.MemBudgetBytes
	}
	if opt.MemoryBudgetMB == 0 {
		opt.MemoryBudgetMB = base.MemoryBudgetMB
	}
	// LatencyScale must follow the chunk size unless the request pins it:
	// shrinking chunks by f without shrinking fixed latencies by f
	// distorts the latency-to-service-time ratio (DESIGN.md). The base
	// scale only applies to the base chunk size it was derived for.
	if opt.LatencyScale == 0 {
		if opt.ChunkBytes == base.ChunkBytes && base.LatencyScale != 0 {
			opt.LatencyScale = base.LatencyScale
		} else {
			opt.LatencyScale = chaos.LatencyScaleFor(opt.ChunkBytes)
		}
	}
	if opt.Seed == 0 {
		opt.Seed = base.Seed
	}
	// The execution engine is a deployment default too (chaos-serve
	// -engine); a job that names one explicitly keeps it.
	if opt.Engine == "" {
		opt.Engine = base.Engine
	}
	return opt
}

// CloseEventStreams ends every open job-event stream and refuses new
// subscriptions. Register it with http.Server.RegisterOnShutdown so
// SSE connections — never idle from the HTTP server's point of view —
// end when drain begins instead of consuming the whole drain budget
// (Service.Shutdown also closes them, but the HTTP server drains
// handlers first).
func (s *Service) CloseEventStreams() { s.scheduler.CloseEventStreams() }

// Catalog exposes the graph catalog (used by the HTTP layer and tests).
func (s *Service) Catalog() *Catalog { return s.catalog }

// Scheduler exposes the job scheduler (used by the HTTP layer and tests).
func (s *Service) Scheduler() *Scheduler { return s.scheduler }

// Stats is the /v1/stats payload.
type Stats struct {
	Graphs       int            `json:"graphs"`
	Workers      int            `json:"workers"`
	QueueDepth   int            `json:"queueDepth"`
	Running      int            `json:"running"`
	Jobs         map[string]int `json:"jobs"`
	PerAlgorithm map[string]int `json:"perAlgorithm"`
	// PerEngine counts submissions by execution plane ("sim"/"native").
	PerEngine map[string]int `json:"perEngine"`
	// NativeWallSeconds is the summed measured wall-clock of completed
	// native runs (cache hits excluded — they never ran).
	NativeWallSeconds float64 `json:"nativeWallSeconds"`
	// SpillBytes / SpillFiles sum the out-of-core spill traffic of
	// completed native runs with a memory budget (cache hits excluded).
	SpillBytes int64 `json:"spillBytes"`
	SpillFiles int   `json:"spillFiles"`
	// UpdateSlabBytes is what the service's slab store holds: the
	// update-record slabs finished jobs gave back for later ones.
	UpdateSlabBytes int64      `json:"updateSlabBytes"`
	Cache           CacheStats `json:"cache"`
	// Durable reports the persistence layer; nil without a data dir.
	Durable *DurableStats `json:"durable,omitempty"`
}

// DurableStats is the persistence slice of /v1/stats.
type DurableStats struct {
	DataDir string `json:"dataDir"`
	// JournalRecords counts records appended since the last compacting
	// snapshot (the snapshot-every policy input).
	JournalRecords int `json:"journalRecords"`
	// WAL is the full write-ahead-log counter surface (lifetime
	// records, fsyncs issued, snapshots taken) — what /metrics exports.
	WAL durable.WALStats `json:"wal"`
	// LastError is the first persistence failure since boot, "" while
	// healthy. State keeps serving from memory past it, but durability
	// is gone until the operator intervenes.
	LastError string `json:"lastError,omitempty"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	out := s.scheduler.stats()
	out.Graphs = len(s.catalog.List())
	out.Cache = s.cache.stats()
	out.UpdateSlabBytes = s.slabs.Bytes()
	if s.persist != nil {
		out.Durable = &DurableStats{
			DataDir:        s.persist.dataDir,
			JournalRecords: s.persist.wal.AppendedSinceCompact(),
			WAL:            s.persist.wal.Stats(),
			LastError:      s.persist.lastError(),
		}
	}
	return out
}

// Shutdown stops accepting work, cancels still-queued jobs and drains the
// running ones, waiting up to ctx's deadline. A durable service then
// takes a final compacting snapshot and closes the journal, so the next
// Open replays (almost) nothing.
func (s *Service) Shutdown(ctx context.Context) error {
	err := s.scheduler.Shutdown(ctx)
	s.Close()
	return err
}

// Close releases the persistence layer (final snapshot + journal
// close) without waiting for jobs; Shutdown calls it. Idempotent, safe
// on an in-memory service.
func (s *Service) Close() {
	if s.persist == nil {
		return
	}
	s.closeOnce.Do(func() {
		s.persist.note(s.persist.wal.Compact(s.captureSnapshot))
		s.persist.wal.Close()
	})
}

// notFoundError distinguishes missing resources so the HTTP layer can
// answer 404 instead of 400.
type notFoundError struct{ what, id string }

func (e *notFoundError) Error() string { return fmt.Sprintf("service: unknown %s %q", e.what, e.id) }

// conflictError distinguishes already-exists failures so the HTTP layer
// can answer 409 instead of 400.
type conflictError struct{ what, id string }

func (e *conflictError) Error() string {
	return fmt.Sprintf("service: %s %q already registered", e.what, e.id)
}
