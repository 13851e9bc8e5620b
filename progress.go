package chaos

import (
	"context"

	"chaos/internal/core/drive"
)

// Progress is a live snapshot of a running simulation, reported at each
// iteration boundary — the same boundary cooperative cancellation is
// observed at. The DES engine fills SimulatedSeconds and the native
// engine WallSeconds. Subscribing is guaranteed not to perturb the run
// (see DESIGN.md and TestProgressDoesNotPerturbRun).
type Progress = drive.Progress

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
