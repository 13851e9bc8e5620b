package chaos

import (
	"context"
	"io"

	"chaos/internal/core/drive"
	"chaos/internal/obs"
)

// TraceSpan is one flight-recorder record: a unit of per-machine work
// (preprocess, scatter/gather/apply of one partition, a steal sweep)
// with its time range and byte/chunk/steal tallies. Start and Dur are
// nanoseconds — virtual time under the DES engine, host wall-clock
// since run start under the native engine. Like Progress, the stream
// is guaranteed observational-only: subscribing leaves results,
// reports and the virtual clock bit-identical (TestTraceDeterminism).
type TraceSpan = drive.Span

// Phase labels of TraceSpan.Phase.
const (
	PhasePreprocess = drive.PhasePreprocess
	PhaseScatter    = drive.PhaseScatter
	PhaseGather     = drive.PhaseGather
	PhaseApply      = drive.PhaseApply
	PhaseSteal      = drive.PhaseSteal
	PhaseSpill      = drive.PhaseSpill
)

// traceKey carries the subscriber through a context, mirroring
// progressKey; the engine-side wiring happens in runProgram.
type traceKey struct{}

// WithTrace returns a context that subscribes fn to the flight-recorder
// span stream of any run started under it. Under the DES engine fn runs
// on the simulation goroutine; under the native engine it is invoked
// concurrently from machine goroutines, so fn must be safe for
// concurrent use (TraceRecorder.Record is). Keep it cheap: a slow
// callback stalls host wall-clock, never simulated time or results.
func WithTrace(ctx context.Context, fn func(TraceSpan)) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceKey{}, fn)
}

// traceFrom extracts the subscriber WithTrace installed, nil if none.
func traceFrom(ctx context.Context) func(TraceSpan) {
	if ctx == nil {
		return nil
	}
	fn, _ := ctx.Value(traceKey{}).(func(TraceSpan))
	return fn
}

// spillDirKey carries the native spill parent directory through a
// context, mirroring traceKey.
type spillDirKey struct{}

// WithSpillDir returns a context under which native runs with an
// Options.MemoryBudgetMB place their spill files in a run-private temp
// directory created under dir instead of the OS temp dir. The job
// service points this at a directory it can sweep for orphans on
// restart. Purely operational: the directory never affects results and
// is absent from option fingerprints.
func WithSpillDir(ctx context.Context, dir string) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spillDirKey{}, dir)
}

// spillDirFrom extracts the directory WithSpillDir installed, "" if none.
func spillDirFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	dir, _ := ctx.Value(spillDirKey{}).(string)
	return dir
}

// TraceRecorder collects a run's span stream into a bounded ring,
// dropping the oldest spans on overflow so recording never blocks or
// grows without bound. Safe for concurrent use; one recorder should
// observe one run (spans carry no run ID).
type TraceRecorder struct {
	ring *obs.Ring[drive.Span]
}

// NewTraceRecorder returns a recorder retaining at most capacity spans
// (a non-positive capacity is bumped to 1).
func NewTraceRecorder(capacity int) *TraceRecorder {
	return &TraceRecorder{ring: obs.NewRing[drive.Span](capacity)}
}

// Record is the WithTrace subscriber: pass it as the callback.
func (t *TraceRecorder) Record(s TraceSpan) { t.ring.Record(s) }

// Spans returns the retained spans oldest-first plus the count dropped
// to overflow.
func (t *TraceRecorder) Spans() ([]TraceSpan, uint64) { return t.ring.Snapshot() }

// Dropped returns the overflow count alone.
func (t *TraceRecorder) Dropped() uint64 { return t.ring.Dropped() }

// WriteChromeTrace emits the retained spans as Chrome trace_event JSON
// ({"traceEvents": [...]}) loadable in about:tracing or Perfetto: one
// thread per machine, one complete event per span, through the same
// writer as the job service's merged timeline.
func (t *TraceRecorder) WriteChromeTrace(w io.Writer) error {
	spans, _ := t.ring.Snapshot()
	return obs.Timeline{Engine: spans}.WriteChrome(w)
}
