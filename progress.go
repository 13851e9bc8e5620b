package chaos

import (
	"context"

	"chaos/internal/core"
)

// Progress is a live snapshot of a running simulation, reported at each
// iteration boundary — the same boundary cooperative cancellation is
// observed at. Subscribing is guaranteed not to perturb the run: the
// engine invokes the callback with already-settled counters and the
// callback cannot reach the run's RNG, clock or event order, so
// results, reports and the virtual clock are bit-identical with and
// without a subscriber (see DESIGN.md and TestProgressDoesNotPerturbRun).
type Progress struct {
	// Iterations counts completed iterations (1 at the first boundary).
	Iterations int `json:"iterations"`
	// SimulatedSeconds is the virtual clock at the boundary. Zero under
	// the native engine, which has no virtual clock (see WallSeconds).
	SimulatedSeconds float64 `json:"simulatedSeconds"`
	// WallSeconds is the host wall-clock since the run started,
	// reported by the native engine only (zero under the DES engine,
	// whose progress stream stays bit-reproducible).
	WallSeconds float64 `json:"wallSeconds,omitempty"`
	// BytesRead / BytesWritten are device-level totals so far.
	BytesRead    int64 `json:"bytesRead"`
	BytesWritten int64 `json:"bytesWritten"`
	// StealsAccepted counts steal proposals accepted so far.
	StealsAccepted int `json:"stealsAccepted"`
	// StealsRejected counts steal proposals the §5.4 criterion turned
	// down so far.
	StealsRejected int `json:"stealsRejected"`
	// SpillBytes counts bytes the native engine's update transport has
	// written to spill files so far, records at their in-memory size
	// (Report.SpillBytes has the ratio to encoded; always zero under the
	// DES engine, whose simulated storage accounts bytes in
	// BytesRead/BytesWritten).
	SpillBytes int64 `json:"spillBytes,omitempty"`
}

// progressKey carries the subscriber through a context; the engine-side
// wiring happens in runProgram, so every context-taking entry point
// (RunPreparedContext and the algorithm runners) observes it.
type progressKey struct{}

// WithProgress returns a context that subscribes fn to iteration-
// boundary progress reports of any run started under it (the job
// service feeds live job views and SSE ticks from this). fn runs on the
// simulation goroutine: keep it cheap — a slow callback stalls host
// wall-clock, never simulated time or results.
func WithProgress(ctx context.Context, fn func(Progress)) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, progressKey{}, fn)
}

// progressFrom extracts the subscriber WithProgress installed, nil if
// none.
func progressFrom(ctx context.Context) func(Progress) {
	if ctx == nil {
		return nil
	}
	fn, _ := ctx.Value(progressKey{}).(func(Progress))
	return fn
}

// progressOf adapts an engine's counter snapshot to the public form.
// Under the native engine Now is host wall-clock, surfaced as
// WallSeconds so SimulatedSeconds never carries a non-simulated figure.
func progressOf(engine string, p core.Progress) Progress {
	out := Progress{
		Iterations:     p.Iterations,
		BytesRead:      p.BytesRead,
		BytesWritten:   p.BytesWritten,
		StealsAccepted: p.StealsAccepted,
		StealsRejected: p.StealsRejected,
		SpillBytes:     p.SpillBytes,
	}
	if engine == EngineNative {
		out.WallSeconds = p.Now.Seconds()
	} else {
		out.SimulatedSeconds = p.Now.Seconds()
	}
	return out
}
