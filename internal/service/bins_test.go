package service

import (
	"context"
	"crypto/sha256"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"chaos"
	"chaos/internal/core/drive"
)

// nativeOpts is the native job the bin tests run: stealing off, so the
// steal counters are as reproducible as every other report field.
var nativeOpts = chaos.Options{Engine: chaos.EngineNative, Machines: 2, DisableStealing: true}

// direct runs alg over graph g's view the way a job with opt runs it,
// but with no bin cache: the reference a served run must equal.
func direct(t *testing.T, g *Graph, alg string, opt chaos.Options) (*chaos.Result, *chaos.Report) {
	t.Helper()
	view, err := chaos.ViewFor(alg)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := chaos.RunPrepared(alg, g.View(view), g.Vertices, mergeOptions(labOptions, opt))
	if err != nil {
		t.Fatal(err)
	}
	return res, rep
}

// clockless is a report without the two fields host wall-clock feeds
// on the native engine.
func clockless(rep *chaos.Report) chaos.Report {
	r := *rep
	r.WallSeconds, r.AggregateBandwidth = 0, 0
	return r
}

// checkLikeDirect fails unless a finished job's result equals the
// direct run's and its report equals it but for wall-clock.
func checkLikeDirect(t *testing.T, g *Graph, jv JobView, opt chaos.Options) {
	t.Helper()
	if jv.State != JobDone || jv.CacheHit {
		t.Fatalf("job %s (%s) ended %s, cache hit %v: %s", jv.ID, jv.Algorithm, jv.State, jv.CacheHit, jv.Error)
	}
	res, rep := direct(t, g, jv.Algorithm, opt)
	if !reflect.DeepEqual(jv.Result, res) {
		t.Errorf("%s seed %d: served result %v, direct %v", jv.Algorithm, opt.Seed, jv.Result, res)
	}
	if got, want := clockless(jv.Report), clockless(rep); !reflect.DeepEqual(got, want) {
		t.Errorf("%s seed %d: served report %+v, direct %+v", jv.Algorithm, opt.Seed, got, want)
	}
}

// binDigests hashes every bin set the graph holds, by key.
func binDigests(g *Graph) map[drive.BinKey][32]byte {
	out := make(map[drive.BinKey][32]byte)
	g.bins.Each(func(key drive.BinKey, b *drive.Bins) {
		h := sha256.New()
		for _, list := range b.Chunks {
			for _, c := range list {
				h.Write(c)
			}
		}
		out[key] = [32]byte(h.Sum(nil))
	})
	return out
}

// binBytes reads chaos_catalog_bytes{kind="bins"} off /metrics.
func binBytes(t *testing.T, svc *Service) int64 {
	t.Helper()
	const prefix = `chaos_catalog_bytes{kind="bins"} `
	for _, line := range strings.Split(svc.metricsText(), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatal(err)
			}
			return int64(n)
		}
	}
	t.Fatal("no bins sample on /metrics")
	return 0
}

// TestWarmBinsMatchColdRuns runs the served algorithms twice with other
// seeds (so the result cache cannot answer): the first run of each bin
// key builds the set, every later one borrows it, and every run's values
// and report equal a direct run's. MCST rewrites edges every iteration
// on a set SSSP built; the cached bytes do not move.
func TestWarmBinsMatchColdRuns(t *testing.T) {
	svc := newTestService(t, 2)
	g, err := svc.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 9, Weighted: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func(alg string, opt chaos.Options) {
		t.Helper()
		jv, err := svc.Submit("g", alg, opt)
		if err != nil {
			t.Fatal(err)
		}
		checkLikeDirect(t, g, waitJob(t, svc, jv.ID), opt)
	}
	mix := []string{"PR", "WCC", "SSSP", "BFS"}
	opt := nativeOpts
	opt.Seed = 1
	for _, alg := range mix {
		run(alg, opt)
	}
	built := binDigests(g)
	if len(built) != 3 { // PR; WCC and BFS; SSSP
		t.Fatalf("the mix built %d bin sets, want 3", len(built))
	}
	held := g.Bytes().Bins
	mcst := nativeOpts
	mcst.RewriteEdges = true
	for seed := int64(1); seed <= 2; seed++ {
		mcst.Seed = seed
		run("MCST", mcst)
	}
	opt.Seed = 2
	for _, alg := range mix {
		run(alg, opt)
	}
	if after := binDigests(g); !reflect.DeepEqual(after, built) {
		t.Error("the cached chunk bytes changed across warm runs")
	}
	if g.Bytes().Bins != held {
		t.Errorf("warm runs moved the bin bytes from %d to %d", held, g.Bytes().Bins)
	}
}

// TestWarmBinsConcurrentColdKey submits two jobs at once on one cold
// key: they share one build, and both equal a direct run.
func TestWarmBinsConcurrentColdKey(t *testing.T) {
	svc := newTestService(t, 2)
	g, err := svc.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := []chaos.Options{nativeOpts, nativeOpts}
	opts[0].Seed, opts[1].Seed = 1, 2
	ids := make([]string, len(opts))
	for i, opt := range opts {
		jv, err := svc.Submit("g", "WCC", opt)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = jv.ID
	}
	for i, id := range ids {
		checkLikeDirect(t, g, waitJob(t, svc, id), opts[i])
	}
	if n := len(binDigests(g)); n != 1 {
		t.Fatalf("two jobs on one key left %d bin sets, want 1", n)
	}
}

// TestBinEvictionKeepsRunningJob fills a graph's store to its bound,
// then, while a run is reading the least recently used set, a fifth key
// evicts it: /metrics drops by that set's bytes, and the run finishes on
// the evicted set with the direct run's values.
func TestBinEvictionKeepsRunningJob(t *testing.T) {
	svc := newTestService(t, 1)
	g, err := svc.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 9, Weighted: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		alg      string
		machines int
	}
	keys := []key{{"PR", 2}, {"PR", 3}, {"WCC", 2}, {"WCC", 3}, {"SSSP", 2}}
	runKey := func(ctx context.Context, k key, cached bool) *chaos.Result {
		t.Helper()
		view, _ := chaos.ViewFor(k.alg)
		src := g.source(view)
		if cached {
			ctx = chaos.WithBinCache(ctx, g.bins.Bind(src))
		}
		opt := nativeOpts
		opt.Machines = k.machines
		res, _, err := chaos.RunSourceContext(ctx, k.alg, src, g.Vertices, mergeOptions(labOptions, opt))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var sizes []int64
	for _, k := range keys[:drive.MaxBinSets] {
		before := binBytes(t, svc)
		runKey(context.Background(), k, true)
		sizes = append(sizes, binBytes(t, svc)-before)
	}
	full := binBytes(t, svc)
	// The fifth set's size, from a store of its own.
	view, _ := chaos.ViewFor(keys[4].alg)
	fifth := drive.NewBinStore().Bind(g.source(view))
	opt := nativeOpts
	if _, _, err := chaos.RunSourceContext(chaos.WithBinCache(context.Background(), fifth), keys[4].alg, g.source(view), g.Vertices, mergeOptions(labOptions, opt)); err != nil {
		t.Fatal(err)
	}
	fifthSize := fifth.Store().Bytes()

	// The held run borrows key 0's set; at its first iteration boundary
	// keys 1-3 are used (key 0 is now the least recently used) and key
	// 4 is built.
	var once sync.Once
	ctx := chaos.WithProgress(context.Background(), func(chaos.Progress) {
		once.Do(func() {
			for _, k := range keys[1:] {
				runKey(context.Background(), k, true)
			}
		})
	})
	got := runKey(ctx, keys[0], true)
	if want := full - sizes[0] + fifthSize; binBytes(t, svc) != want {
		t.Errorf("bins after the fifth key: %d B, want %d (evicting %d B, adding %d B)", binBytes(t, svc), want, sizes[0], fifthSize)
	}
	g.bins.Each(func(k drive.BinKey, _ *drive.Bins) {
		if k.Machines == keys[0].machines && k.Degrees {
			t.Errorf("the least recently used set (%+v) is still held", k)
		}
	})
	if want := runKey(context.Background(), keys[0], false); !reflect.DeepEqual(got, want) {
		t.Errorf("the run on the evicted set returned %v, direct %v", got, want)
	}
}

// TestBinCacheBypassedForAnotherSlice: a view's cache handed another
// source of the same edges answers nothing and keeps nothing, and the
// run is correct.
func TestBinCacheBypassedForAnotherSlice(t *testing.T) {
	svc := newTestService(t, 1)
	g, err := svc.RegisterGraph(GraphSpec{Name: "g", Type: "rmat", Scale: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctx := chaos.WithBinCache(context.Background(), g.bins.Bind(g.source(chaos.ViewUndirected)))
	opt := mergeOptions(labOptions, nativeOpts)
	res, _, err := chaos.RunPreparedContext(ctx, "WCC", g.View(chaos.ViewUndirected), g.Vertices, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := direct(t, g, "WCC", nativeOpts); !reflect.DeepEqual(res, want) {
		t.Errorf("bypassed run %v, direct %v", res, want)
	}
	if n := g.Bytes().Bins; n != 0 {
		t.Errorf("a bypassed run left %d bin bytes", n)
	}
}
