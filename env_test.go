package chaos

import (
	"context"
	"os"
	"strings"
	"testing"

	"chaos/internal/core/drive"
	"chaos/internal/graph"
)

// envProbe is one set of the four lent inputs and what a run handed
// them: spans recorded, progress ticks and, at each tick, the spill
// directories under each watched dir.
type envProbe struct {
	rec      *TraceRecorder
	dir      string
	cache    *BinCache
	ticks    int
	watch    []string // dirs whose spill directories a tick counts
	spilling [][]int  // per tick, the chaos-spill-* count of each watched dir
}

func newEnvProbe(t *testing.T, src EdgeSource) *envProbe {
	p := &envProbe{rec: NewTraceRecorder(1 << 16), dir: t.TempDir(), cache: drive.NewBinStore().Bind(src)}
	p.watch = []string{p.dir}
	return p
}

func (p *envProbe) tick(Progress) {
	p.ticks++
	counts := make([]int, len(p.watch))
	for i, dir := range p.watch {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "chaos-spill-") {
				counts[i]++
			}
		}
	}
	p.spilling = append(p.spilling, counts)
}

// envSetters are the four With* calls, by name, each installing its
// probe field.
var envSetters = map[string]func(context.Context, *envProbe) context.Context{
	"trace":    func(ctx context.Context, p *envProbe) context.Context { return WithTrace(ctx, p.rec.Record) },
	"progress": func(ctx context.Context, p *envProbe) context.Context { return WithProgress(ctx, p.tick) },
	"spill":    func(ctx context.Context, p *envProbe) context.Context { return WithSpillDir(ctx, p.dir) },
	"bins":     func(ctx context.Context, p *envProbe) context.Context { return WithBinCache(ctx, p.cache) },
}

// TestRunEnvComposes: the four With* calls compose in any order, each
// setting its own input of one run env, and a With* on a child context
// leaves its parent's env alone. Native PageRank on RMAT-14 under a
// 1 MiB budget spills, so every input is used: spans are recorded,
// progress ticks arrive, at each tick one run-private spill directory
// exists under the given dir, and the cache holds a set afterwards.
func TestRunEnvComposes(t *testing.T) {
	src := graph.Edges(GenerateRMAT(14, false, 1))
	opt := Options{Engine: EngineNative, Machines: 2, ChunkBytes: 64 << 10, MemoryBudgetMB: 1, ComputeWorkers: 2, Seed: 1}
	run := func(ctx context.Context) {
		t.Helper()
		_, rep, err := RunSourceContext(ctx, "PR", src, 1<<14, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.SpillBytes == 0 {
			t.Fatal("the run spilled nothing: the spill dir went unused")
		}
	}
	check := func(p *envProbe) {
		t.Helper()
		if spans, _ := p.rec.Spans(); len(spans) == 0 {
			t.Error("no spans recorded")
		}
		if p.ticks == 0 {
			t.Error("no progress tick")
		}
		for i, counts := range p.spilling {
			if counts[0] != 1 {
				t.Errorf("tick %d: %d spill directories under the spill dir, want 1", i+1, counts[0])
			}
		}
		if p.cache.Store().Bytes() == 0 {
			t.Error("the bin cache holds no set")
		}
	}

	for _, order := range [][]string{
		{"progress", "trace", "spill", "bins"}, // the job service's
		{"spill", "trace", "progress", "bins"}, // the benchmark's, then the rest
		{"bins", "progress", "spill", "trace"},
		{"trace", "bins", "spill", "progress"},
	} {
		t.Run(strings.Join(order, "-"), func(t *testing.T) {
			p := newEnvProbe(t, src)
			ctx := context.Background()
			for _, name := range order {
				ctx = envSetters[name](ctx, p)
			}
			run(ctx)
			check(p)
		})
	}

	t.Run("nil", func(t *testing.T) {
		p := newEnvProbe(t, src)
		var ctx context.Context // a nil parent is accepted as Background
		for _, name := range []string{"spill", "trace", "progress", "bins"} {
			ctx = envSetters[name](ctx, p)
		}
		run(ctx)
		check(p)
	})

	t.Run("child leaves parent", func(t *testing.T) {
		parent, child := newEnvProbe(t, src), newEnvProbe(t, src)
		parent.watch = append(parent.watch, child.dir)
		pctx := context.Background()
		for _, name := range []string{"spill", "trace", "progress", "bins"} {
			pctx = envSetters[name](pctx, parent)
		}
		cctx := pctx
		for _, name := range []string{"trace", "spill", "bins", "progress"} {
			cctx = envSetters[name](cctx, child)
		}
		run(cctx)
		check(child)
		spans, _ := child.rec.Spans()
		childSpans, childTicks, childBins := len(spans), child.ticks, child.cache.Store().Bytes()
		run(pctx)
		check(parent)
		for i, counts := range parent.spilling {
			if counts[1] != 0 {
				t.Errorf("tick %d: the parent's run spilled under the child's dir", i+1)
			}
		}
		if spans, _ := child.rec.Spans(); len(spans) != childSpans || child.ticks != childTicks || child.cache.Store().Bytes() != childBins {
			t.Errorf("the parent's run reached the child's inputs: %d spans, %d ticks, %d bin bytes after it, %d, %d, %d before",
				len(spans), child.ticks, child.cache.Store().Bytes(), childSpans, childTicks, childBins)
		}
	})
}
