package chaos

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"chaos/internal/core/drive"
	"chaos/internal/graph"
	"chaos/internal/raceflag"
)

// valueRuns runs each of the ten algorithms over src in its view and
// returns its whole output, the value vector (MCST's forest, Cond's
// scalar), not just the summary a Result keeps.
var valueRuns = []struct {
	name string
	run  func(ctx context.Context, src EdgeSource, n uint64, opt Options) (any, *Report, error)
}{
	{"BFS", func(ctx context.Context, src EdgeSource, n uint64, opt Options) (any, *Report, error) {
		return runBFS(ctx, src, n, 0, opt)
	}},
	{"WCC", func(ctx context.Context, src EdgeSource, n uint64, opt Options) (any, *Report, error) {
		return runWCC(ctx, src, n, opt)
	}},
	{"MCST", func(ctx context.Context, src EdgeSource, n uint64, opt Options) (any, *Report, error) {
		return runMCST(ctx, src, n, opt)
	}},
	{"MIS", func(ctx context.Context, src EdgeSource, n uint64, opt Options) (any, *Report, error) {
		return runMIS(ctx, src, n, opt)
	}},
	{"SSSP", func(ctx context.Context, src EdgeSource, n uint64, opt Options) (any, *Report, error) {
		return runSSSP(ctx, src, n, 0, opt)
	}},
	{"PR", func(ctx context.Context, src EdgeSource, n uint64, opt Options) (any, *Report, error) {
		return runPageRank(ctx, src, n, 5, opt)
	}},
	{"SCC", func(ctx context.Context, src EdgeSource, n uint64, opt Options) (any, *Report, error) {
		return runSCC(ctx, src, n, opt)
	}},
	{"Cond", func(ctx context.Context, src EdgeSource, n uint64, opt Options) (any, *Report, error) {
		return runConductance(ctx, src, n, opt)
	}},
	{"SpMV", func(ctx context.Context, src EdgeSource, n uint64, opt Options) (any, *Report, error) {
		return runSpMV(ctx, src, n, opt)
	}},
	{"BP", func(ctx context.Context, src EdgeSource, n uint64, opt Options) (any, *Report, error) {
		return runBP(ctx, src, n, 5, opt)
	}},
}

// clockless is a report without the fields a native run reads off the
// host clock.
func clockless(rep *Report) Report {
	r := *rep
	r.WallSeconds, r.AggregateBandwidth = 0, 0
	return r
}

// TestSlabStoreKeepsValues: a lent SlabStore changes where a run's update
// slabs come from and nothing else. Each of the ten algorithms, on both
// engines, returns the values and report of a run without a store when
// it runs through a fresh store and through one the other nine have
// warmed; so does a native PageRank run that spills under a 1 MiB
// budget, cold and warm.
func TestSlabStoreKeepsValues(t *testing.T) {
	const scale = 8
	edges := graph.Edges(GenerateRMAT(scale, true, 5))
	for _, engine := range []string{EngineSim, EngineNative} {
		opt := labOptions(2)
		opt.Engine = engine
		opt.MemBudgetBytes = 1 << 10 // several partitions per machine
		opt.DisableStealing = true   // native steal counts follow the host schedule
		run := func(i int, ctx context.Context) (any, Report) {
			t.Helper()
			view, err := ViewFor(valueRuns[i].name)
			if err != nil {
				t.Fatal(err)
			}
			values, rep, err := valueRuns[i].run(ctx, view.Source(edges), 1<<scale, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", engine, valueRuns[i].name, err)
			}
			return values, clockless(rep)
		}
		for i, alg := range valueRuns {
			want, wantRep := run(i, context.Background())
			fresh := NewSlabStore()
			warm := NewSlabStore()
			for j := range valueRuns {
				if j != i {
					run(j, WithSlabStore(context.Background(), warm))
				}
			}
			if warm.Bytes() == 0 {
				t.Fatalf("%s: nine runs left nothing in the store", engine)
			}
			for _, s := range []struct {
				name  string
				store *SlabStore
			}{{"fresh", fresh}, {"warm", warm}} {
				got, gotRep := run(i, WithSlabStore(context.Background(), s.store))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s through a %s store: values differ from a run without one", engine, alg.name, s.name)
				}
				if !reflect.DeepEqual(gotRep, wantRep) {
					t.Errorf("%s %s through a %s store: report %+v, without one %+v", engine, alg.name, s.name, gotRep, wantRep)
				}
			}
		}
	}

	src := graph.Edges(GenerateRMAT(14, false, 1))
	opt := Options{Engine: EngineNative, Machines: 2, ChunkBytes: 64 << 10, MemoryBudgetMB: 1, ComputeWorkers: 2, Seed: 1, DisableStealing: true}
	want, wantRep, err := runPageRank(context.Background(), src, 1<<14, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if wantRep.SpillBytes == 0 {
		t.Fatal("the budgeted run spilled nothing")
	}
	store := NewSlabStore()
	for _, when := range []string{"cold", "warm"} {
		got, rep, err := runPageRank(WithSlabStore(context.Background(), store), src, 1<<14, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		// How much spills depends on how the machines' goroutines
		// interleave, store or not.
		if rep.SpillBytes == 0 {
			t.Fatalf("spilling PageRank through a %s store spilled nothing", when)
		}
		rep.SpillBytes, rep.SpillFiles = wantRep.SpillBytes, wantRep.SpillFiles
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(clockless(rep), clockless(wantRep)) {
			t.Errorf("spilling PageRank through a %s store: values or report differ from a run without one", when)
		}
	}
}

// TestSlabStoreReuse: a run through a warm store takes its update slabs
// from it instead of allocating them. Two identical native PageRank runs
// through one store, with the §3 pass's output borrowed from a BinCache,
// on a graph dense enough that update records are most of what a run
// allocates (RMAT-12's edges eight times over: 524 288 edges on 4 096
// vertices): the second run allocates at most 10 % of the update bytes
// the first moved (edges × iterations × 8 B). The first, cold, allocates
// about 29 % of them — the arena recycles its slabs across iterations,
// not across runs — and the second about 5 %.
func TestSlabStoreReuse(t *testing.T) {
	if raceflag.Enabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	base := GenerateRMAT(12, false, 1)
	var edges []Edge
	for range 8 {
		edges = append(edges, base...)
	}
	src := graph.Edges(edges)
	opt := Options{Engine: EngineNative, Machines: 2, ChunkBytes: 64 << 10, ComputeWorkers: 2, Seed: 1}
	ctx := WithBinCache(context.Background(), drive.NewBinStore().Bind(src))
	if _, _, err := RunSourceContext(ctx, "PR", src, 1<<12, opt); err != nil { // builds the bin set
		t.Fatal(err)
	}
	store := NewSlabStore()
	ctx = WithSlabStore(ctx, store)
	run := func() (*Result, uint64, int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, rep, err := RunSourceContext(ctx, "PR", src, 1<<12, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.TotalAlloc - before.TotalAlloc, rep.Iterations
	}
	firstRes, first, iters := run()
	held := store.Bytes()
	secondRes, second, _ := run()
	updates := uint64(len(edges)) * uint64(iters) * uint64(unsafe.Sizeof(drive.UpdRec[float32]{}))
	t.Logf("first run %d B, second %d B, of %d B of updates; the store held %d B between them", first, second, updates, held)
	if held == 0 {
		t.Fatal("the first run left nothing in the store")
	}
	if second*10 > updates {
		t.Errorf("the first run allocated %d B, the second %d B: more than 10 %% of the %d B of updates it moved", first, second, updates)
	}
	if !reflect.DeepEqual(firstRes, secondRes) {
		t.Errorf("second summary %v, first %v", secondRes.Summary, firstRes.Summary)
	}
}

// TestSlabStoreSharesAcrossPrograms: a run takes its update slabs from
// what another program left in the store, since the store shelves slabs
// by record size: PageRank's float32 records and WCC's uint32 ones are
// both 8 bytes. A native PageRank run and then a native WCC run over the
// same undirected edges (RMAT-12's edges four times over, both ways:
// about half a million), bins borrowed from a BinCache. WCC's first two
// iterations, whose slabs are sized by a whole frontier's output as
// PageRank's are, allocate at most 10 % of the update bytes they move,
// counted by a label propagation beside the run: about 3 %, where a cold
// run — as when the store kept slabs per record type — allocates about
// 70 %. Later iterations size their slabs by a shrinking frontier, in
// classes neither PageRank's slabs nor WCC's own exact-class free list
// serve, so the whole run allocates about 41 % of the update bytes it
// moves (a cold run about 109 %); that figure is logged, not held.
func TestSlabStoreSharesAcrossPrograms(t *testing.T) {
	if raceflag.Enabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	base := GenerateRMAT(12, false, 1)
	var edges []Edge
	for range 4 {
		edges = append(edges, base...)
	}
	und := graph.Undirected(edges)
	src := graph.Edges(und)
	const n, shared = 1 << 12, 2
	opt := Options{Engine: EngineNative, Machines: 2, ChunkBytes: 64 << 10, ComputeWorkers: 2, Seed: 1}
	ctx := WithBinCache(context.Background(), drive.NewBinStore().Bind(src))
	for _, alg := range []string{"PR", "WCC"} { // build both bin sets
		if _, _, err := RunSourceContext(ctx, alg, src, n, opt); err != nil {
			t.Fatal(err)
		}
	}
	store := NewSlabStore()
	ctx = WithSlabStore(ctx, store)
	if _, _, err := RunSourceContext(ctx, "PR", src, n, opt); err != nil {
		t.Fatal(err)
	}
	held := store.Bytes()
	if held == 0 {
		t.Fatal("the PageRank run left nothing in the store")
	}
	var start, atShared, end runtime.MemStats
	ctx = WithProgress(ctx, func(p Progress) {
		if p.Iterations == shared {
			runtime.ReadMemStats(&atShared)
		}
	})
	runtime.ReadMemStats(&start)
	_, rep, err := RunSourceContext(ctx, "WCC", src, n, opt)
	runtime.ReadMemStats(&end)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations <= shared {
		t.Fatalf("WCC converged in %d iterations", rep.Iterations)
	}

	// WCC's updates: every edge whose source is active sends one.
	label := make([]uint32, n)
	active := make([]bool, n)
	for v := range label {
		label[v], active[v] = uint32(v), true
	}
	sent := make([]uint64, rep.Iterations)
	for it := range sent {
		next := slices.Clone(label)
		for _, e := range und {
			if active[e.Src] {
				sent[it]++
				next[e.Dst] = min(next[e.Dst], label[e.Src])
			}
		}
		for v := range label {
			active[v] = next[v] < label[v]
			label[v] = next[v]
		}
	}
	const rec = uint64(unsafe.Sizeof(drive.UpdRec[uint32]{}))
	first, whole := (sent[0]+sent[1])*rec, uint64(0)
	for _, s := range sent {
		whole += s * rec
	}
	firstAlloc, wholeAlloc := atShared.TotalAlloc-start.TotalAlloc, end.TotalAlloc-start.TotalAlloc
	t.Logf("PageRank left %d B in the store; WCC allocated %d B of the %d B of updates its first %d iterations moved, %d B of the %d B all %d moved",
		held, firstAlloc, first, shared, wholeAlloc, whole, rep.Iterations)
	if firstAlloc*10 > first {
		t.Errorf("WCC after PageRank allocated %d B in its first %d iterations: more than 10 %% of the %d B of updates they moved", firstAlloc, shared, first)
	}
}
