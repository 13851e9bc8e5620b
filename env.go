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

// BinCache lends the native engine the pre-processing output (§3) of
// earlier runs over one EdgeSource: the edge chunks per partition and
// the out-degrees, keyed by everything they depend on (machines,
// partitions, chunk size, edge format, degrees). A run over any other
// source bypasses it. Safe for concurrent runs, which share a set
// read-only; the DES engine ignores it.
type BinCache = drive.BinCache

// envKey carries a run's drive.Env through a context: WithTrace,
// WithProgress, WithSpillDir and WithBinCache each set one field of it,
// and runProgram hands it to the driver whole.
type envKey struct{}

// envFrom returns the env the With* calls installed on ctx, zero if none.
func envFrom(ctx context.Context) drive.Env {
	if ctx == nil {
		return drive.Env{}
	}
	env, _ := ctx.Value(envKey{}).(drive.Env)
	return env
}

// withEnv returns a context holding a copy of ctx's env with set applied;
// ctx's own env is unchanged.
func withEnv(ctx context.Context, set func(*drive.Env)) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	env := envFrom(ctx)
	set(&env)
	return context.WithValue(ctx, envKey{}, env)
}

// WithProgress returns a context that subscribes fn to iteration-
// boundary progress reports of any run started under it (the job
// service feeds live job views and SSE ticks from this). fn runs on the
// simulation goroutine: keep it cheap — a slow callback stalls host
// wall-clock, never simulated time or results.
func WithProgress(ctx context.Context, fn func(Progress)) context.Context {
	return withEnv(ctx, func(env *drive.Env) { env.Progress = fn })
}

// WithSpillDir returns a context under which native runs with an
// Options.MemoryBudgetMB place their spill files in a run-private temp
// directory created under dir instead of the OS temp dir. The job
// service points this at a directory it can sweep for orphans on
// restart. Purely operational: the directory never affects results and
// is absent from option fingerprints.
func WithSpillDir(ctx context.Context, dir string) context.Context {
	return withEnv(ctx, func(env *drive.Env) { env.SpillDir = dir })
}

// WithBinCache returns a context under which native runs over c's edge
// source borrow their bin sets from c, building and keeping them on a
// miss. Operational like WithSpillDir: a borrowed set is the one the run
// would have built, so values and reports are those of a run without
// it, and it is absent from option fingerprints.
func WithBinCache(ctx context.Context, c *BinCache) context.Context {
	return withEnv(ctx, func(env *drive.Env) { env.Bins = c })
}
