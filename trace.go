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

// WithTrace returns a context that subscribes fn to the flight-recorder
// span stream of any run started under it. Under the DES engine fn runs
// on the simulation goroutine; under the native engine it is invoked
// concurrently from machine goroutines, so fn must be safe for
// concurrent use (TraceRecorder.Record is). Keep it cheap: a slow
// callback stalls host wall-clock, never simulated time or results.
func WithTrace(ctx context.Context, fn func(TraceSpan)) context.Context {
	return withEnv(ctx, func(env *drive.Env) { env.Trace = fn })
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
