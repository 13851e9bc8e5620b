// chaos-serve runs the graph-analytics job service: an HTTP front end
// over the chaos library that registers graphs once, executes algorithm
// jobs on a bounded worker pool, and memoizes results keyed on (graph,
// algorithm, canonical options). See README.md for the API with curl
// examples.
//
// Usage:
//
//	chaos-serve -addr :8080 -workers 4
//	chaos-serve -addr :8080 -chunk-kb 64        # lab-scale default chunks
//	chaos-serve -addr :8080 -data-dir /var/lib/chaos   # durable state
//	chaos-serve -addr :8080 -max-queue 256      # admission control (429 past it)
//	chaos-serve -addr :8080 -engine native      # default jobs to the host-speed plane
//
// Operability: GET /v1/jobs/{id} shows live iteration-boundary progress
// of a running job, GET /v1/jobs/{id}/events streams transitions and
// progress ticks as Server-Sent Events, GET /v1/jobs/{id}/trace serves
// the flight-recorder timeline of an executed run, and GET /metrics
// serves the service counters plus latency histograms in Prometheus
// text exposition format. Every request is logged as one structured
// line (log/slog) with a request id, method, path, matched route,
// status and duration. -debug-addr starts a second, operator-only
// listener with net/http/pprof (keep it off the public address). The
// queue is bounded by -max-queue: overflow answers 429 with
// Retry-After. The host compute budget (-compute-budget, default
// GOMAXPROCS) is always divided across concurrently running simulations
// so N jobs do not oversubscribe the machine N×.
//
// With -data-dir, graph registrations, job history and memoized results
// survive restarts: registrations and job transitions are journaled to a
// write-ahead log with periodic compacting snapshots, and results live
// in a size-bounded disk store that re-indexes itself on start (see
// DESIGN.md for the format and recovery semantics). Jobs that were
// queued or running when the process died are re-enqueued on the next
// start, and one whose result was stored before the crash is answered
// from the store without running. Without -data-dir the service is
// purely in-memory.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops, queued
// jobs are canceled, running simulations drain, and (when durable) a
// final snapshot is written before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chaos"
	"chaos/internal/cli"
	"chaos/internal/service"
)

func main() {
	logger := cli.NewLogger("chaos-serve")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 4, "concurrently running simulations")
		chunkKB  = flag.Int("chunk-kb", 4096, "default chunk size in KiB for jobs that set none (paper: 4096)")
		drainSec = flag.Int("drain-seconds", 120, "graceful-shutdown drain budget")
		maxQueue = flag.Int("max-queue", 1024,
			"queued-job bound; submissions past it answer 429 with Retry-After (0 = unbounded)")
		computeBudget = flag.Int("compute-budget", 0,
			"total engine compute workers shared across running jobs (0 or less = GOMAXPROCS)")

		dataDir       = flag.String("data-dir", "", "durable state directory (empty = in-memory only)")
		snapshotEvery = flag.Int("snapshot-every", 1024,
			"journal records between compacting snapshots (with -data-dir)")
		resultCacheMB = flag.Int("result-cache-mb", 512,
			"disk result store bound in MiB, LRU-evicted past it; 0 = unbounded (with -data-dir)")
		maxUploadMB = flag.Int("max-upload-mb", 64, "POST /v1/graphs body cap in MiB")
		engine      = flag.String("engine", "sim",
			"default execution engine for jobs that set none: sim (discrete-event simulation, virtual time) or native (host-speed goroutine plane)")
		memoryBudgetMB = flag.Int64("memory-budget-mb", 0,
			"default native update-memory budget in MiB for jobs that set none, counted at the updates' encoded size (their resident size too, except 1.5x for MCST and 1.4x for MIS); past it updates spill to disk (0 = unlimited)")
		debugAddr = flag.String("debug-addr", "",
			"operator-only listener with net/http/pprof under /debug/pprof/ (empty = off; never expose publicly)")
		traceSpans = flag.Int("trace-spans", 8192,
			"per-job flight-recorder capacity in spans for GET /v1/jobs/{id}/trace; the oldest are dropped past it")
	)
	flag.Parse()

	defaultEngine, err := chaos.ParseEngine(*engine)
	if err != nil {
		cli.Fatal(logger, "parsing engine", err)
	}
	svc, err := service.Open(service.Config{
		Workers: *workers,
		BaseOptions: chaos.Options{
			ChunkBytes:     *chunkKB << 10,
			LatencyScale:   chaos.LatencyScaleFor(*chunkKB << 10),
			Engine:         defaultEngine,
			MemoryBudgetMB: *memoryBudgetMB,
		},
		MaxQueue:            *maxQueue,
		ComputeBudget:       *computeBudget,
		MaxUploadBytes:      int64(*maxUploadMB) << 20,
		DataDir:             *dataDir,
		SnapshotEvery:       *snapshotEvery,
		ResultStoreMaxBytes: int64(*resultCacheMB) << 20,
		Logger:              logger,
		TraceSpanCap:        *traceSpans,
	})
	if err != nil {
		cli.Fatal(logger, "opening service", err)
	}
	if *dataDir != "" {
		st := svc.Stats()
		logger.Info("durable state recovered",
			"dataDir", *dataDir, "graphs", st.Graphs, "jobs", sum(st.Jobs), "queueDepth", st.QueueDepth)
	}

	if *debugAddr != "" {
		// pprof on its own mux and listener: registering the handlers
		// explicitly (instead of the package's DefaultServeMux side
		// effect) keeps them off the public API address entirely.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("debug listener up", "addr", *debugAddr)
			dsrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
			if err := dsrv.ListenAndServe(); err != nil {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// SSE streams never go idle, so srv.Shutdown would wait its whole
	// deadline on one attached viewer; end them the moment drain starts.
	srv.RegisterOnShutdown(svc.CloseEventStreams)

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		svc.Close() // keep the journal consistent even on listen failure
		cli.Fatal(logger, "serving", err)
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSec)*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	// Shutdown drains the pool and, with -data-dir, writes the final
	// compacting snapshot before closing the journal.
	if err := svc.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("drain", "err", err)
	}
	logger.Info("bye")
}

func sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
