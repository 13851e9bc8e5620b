package main

import (
	"context"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"time"

	"chaos"
	"chaos/internal/graph"
	"chaos/internal/refalgo"
)

// engineWorkload is one of the three workloads that call the engine
// directly: an R-MAT graph, one algorithm and one option vector, run
// again and again through chaos.RunPreparedContext.
type engineWorkload struct {
	name  string
	scale int
	alg   string
	opt   chaos.Options
}

// engineWorkloads returns the engine workloads for a run's seed and
// sizing. ChunkBytes and LatencyScale are the lab-scale pair DESIGN.md
// prescribes (64 KiB chunks, latencies scaled by the same 1/64).
func engineWorkloads(cfg config) map[string]engineWorkload {
	base := chaos.Options{ChunkBytes: 64 << 10, LatencyScale: 1.0 / 64, Seed: cfg.seed}
	native, oocore, des := base, base, base
	native.Engine, native.Machines = chaos.EngineNative, 2
	oocore.Engine, oocore.Machines, oocore.MemoryBudgetMB = chaos.EngineNative, 2, cfg.size.budgetMB
	des.Engine, des.Machines = chaos.EngineSim, 4
	return map[string]engineWorkload{
		"native-inmem-pr":  {name: "native-inmem-pr", scale: cfg.size.nativeScale, alg: "PR", opt: native},
		"native-oocore-pr": {name: "native-oocore-pr", scale: cfg.size.nativeScale, alg: "PR", opt: oocore},
		"des-wcc":          {name: "des-wcc", scale: cfg.size.desScale, alg: "WCC", opt: des},
	}
}

// engineRun is one RunPreparedContext call as the harness saw it.
type engineRun struct {
	seconds float64
	res     *chaos.Result
	rep     *chaos.Report
	spans   []chaos.TraceSpan // traced runs only
	dropped uint64
}

func runEngine(w engineWorkload, cfg config) (*result, error) {
	tr := newTracer(cfg.trace)
	m := newMetrics(cfg.trace)
	tmp, err := os.MkdirTemp(cfg.out, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	ctx := chaos.WithSpillDir(context.Background(), tmp)
	view, err := chaos.ViewFor(w.alg)
	if err != nil {
		return nil, err
	}

	// Set-up: generate the graph and apply the algorithm's view.
	var setups []float64
	setup := func() (raw, edges []chaos.Edge) {
		op := tr.newOp()
		top := tr.begin(0, op, "setup")
		defer tr.end(top)
		t := time.Now()
		id := tr.begin(top, op, "rmat.generate")
		raw = chaos.GenerateRMAT(w.scale, false, cfg.seed)
		tr.end(id)
		id = tr.begin(top, op, "graph.view")
		edges = view.Apply(raw)
		tr.end(id)
		setups = append(setups, time.Since(t).Seconds())
		return raw, edges
	}
	raw, edges := setup()

	// run makes one call. A traced call subscribes a flight recorder
	// through the public hook and hangs its spans under the run span.
	var runs []engineRun
	errored := 0
	run := func(traced bool) {
		r := engineRun{}
		rctx := ctx
		var rec *chaos.TraceRecorder
		if traced {
			rec = chaos.NewTraceRecorder(1 << 16)
			rctx = chaos.WithTrace(ctx, rec.Record)
		}
		id := tr.begin(0, tr.newOp(), "run")
		t := time.Now()
		var err error
		r.res, r.rep, err = chaos.RunPreparedContext(rctx, w.alg, edges, 0, w.opt)
		r.seconds = time.Since(t).Seconds()
		tr.end(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: run:", err)
			errored++
			return
		}
		if traced {
			r.spans, r.dropped = rec.Spans()
			tr.addEngine(id, r.spans, w.opt.Engine == chaos.EngineSim)
		}
		runs = append(runs, r)
	}
	for i := 0; i < cfg.size.warmups; i++ {
		run(false)
	}
	runs, errored = nil, 0

	// The timed region. Untraced runs only for the end-to-end metrics;
	// the traced pass alternates untraced and traced runs so that their
	// difference is the tracing overhead.
	runtime.GC() // the set-ups' garbage is not the timed region's to collect
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for n := 0; n < cfg.size.minRuns || time.Since(start) < cfg.seconds; n++ {
		run(false)
		if cfg.trace {
			run(true)
		}
	}
	mem := memSince(&before, len(runs)+errored)
	rss := peakRSSMB()

	id := tr.begin(0, tr.newOp(), "verify")
	unverified := w.verify(raw, edges, runs)
	tr.end(id)

	// setup_s is a median, so set up again — after the timed region, which
	// then runs on the heap one set-up leaves, as a user's run does, and
	// not beside the discarded 100 MB edge lists of two more.
	for !cfg.trace && len(setups) < cfg.size.setups {
		setup()
	}

	var untraced, traced []engineRun
	for _, r := range runs {
		if r.spans == nil {
			untraced = append(untraced, r)
		} else {
			traced = append(traced, r)
		}
	}
	res := &result{Correct: unverified == 0, Attempted: len(runs) + errored, Failed: errored + unverified}
	if len(untraced) == 0 || cfg.trace && len(traced) == 0 {
		return nil, fmt.Errorf("%s: no run completed", w.name)
	}
	times := secondsOf(untraced)
	fmt.Printf("%s: seed %d, gomaxprocs %d, %d edges, %d iterations, run %s s\n", w.name, cfg.seed, runtime.GOMAXPROCS(0), len(edges), runs[0].rep.Iterations, describe(times))
	if !cfg.trace {
		m.set("setup_s", median(setups))
		m.set("op_s", median(times))
		m.set("edges_per_s", float64(len(edges))*float64(runs[0].rep.Iterations)/median(times))
		m.set("alloc_mb_per_op", mem.allocMB)
		res.Metrics = m.report()
		return res, nil
	}

	if w.opt.Engine == chaos.EngineNative {
		nativeLayer(m, traced, w.opt.Machines)
	} else {
		desLayer(m, traced, median(times))
	}
	var dropped uint64
	for _, r := range traced {
		dropped += r.dropped
	}
	m.set("obs.spans_dropped", float64(dropped))
	m.set("obs.trace_overhead_ratio", median(secondsOf(traced))/median(times)-1)
	m.setRuntime(mem, rss)
	if err := runProbes(m, tr, cfg, tmp); err != nil {
		return nil, err
	}
	res.Metrics = m.report()
	return res, tr.write(cfg.out, w.name)
}

func secondsOf(runs []engineRun) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.seconds
	}
	return out
}

// nativeLayer fills the native.* metrics from the traced runs: per-phase
// busy time is the sum of span self times over machines, each figure the
// median over the runs.
func nativeLayer(m *metrics, traced []engineRun, machines int) {
	col := make(map[string][]float64)
	for _, r := range traced {
		byPhase, byMachine := phaseTimes(r.spans)
		for _, ph := range []string{chaos.PhasePreprocess, chaos.PhaseScatter, chaos.PhaseGather, chaos.PhaseApply, chaos.PhaseSpill, chaos.PhaseSteal} {
			col["native."+ph+"_busy_s"] = append(col["native."+ph+"_busy_s"], byPhase[ph])
		}
		var busy, maxBusy float64
		for _, b := range byMachine {
			busy += b
			maxBusy = max(maxBusy, b)
		}
		col["native.idle_share"] = append(col["native.idle_share"], 1-busy/(float64(machines)*r.seconds))
		if busy > 0 {
			col["native.machine_busy_skew"] = append(col["native.machine_busy_skew"], maxBusy/(busy/float64(machines)))
		}
		col["native.spill_bytes"] = append(col["native.spill_bytes"], float64(r.rep.SpillBytes))
		col["native.spill_files"] = append(col["native.spill_files"], float64(r.rep.SpillFiles))
		col["native.bytes_read"] = append(col["native.bytes_read"], float64(r.rep.BytesRead))
		col["native.steals_accepted"] = append(col["native.steals_accepted"], float64(r.rep.StealsAccepted))
		col["native.iterations"] = append(col["native.iterations"], float64(r.rep.Iterations))
	}
	for name, v := range col {
		m.set(name, median(v))
	}
}

// desLayer fills the core.* metrics. The virtual-time figures are the
// same on every run of a seed (verify checks that), so the first traced
// run speaks for all.
func desLayer(m *metrics, traced []engineRun, hostSeconds float64) {
	r := traced[0]
	byPhase, _ := phaseTimes(r.spans)
	m.set("core.host_s_per_sim_s", hostSeconds/r.rep.SimulatedSeconds)
	m.set("core.sim_seconds", r.rep.SimulatedSeconds)
	for _, ph := range []string{chaos.PhasePreprocess, chaos.PhaseScatter, chaos.PhaseGather, chaos.PhaseApply, chaos.PhaseSteal} {
		m.set("core.sim_"+ph+"_s", byPhase[ph])
	}
	m.set("core.bytes_read", float64(r.rep.BytesRead))
	m.set("core.bytes_written", float64(r.rep.BytesWritten))
	m.set("core.steals_accepted", float64(r.rep.StealsAccepted))
	m.set("core.device_utilization", r.rep.DeviceUtilization)
}

// verify checks the workload's outputs, outside every timed region: one
// typed run against the sequential reference, every timed run's summary
// against that typed run's, the spill counter on the out-of-core
// workload and the exact repeat of the simulation's figures. It returns
// the number of checks that failed.
func (w engineWorkload) verify(raw, edges []chaos.Edge, runs []engineRun) int {
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Fprintf(os.Stderr, "bench: verify %s: %s\n", w.name, fmt.Sprintf(format, args...))
	}
	// The typed run uses the in-memory transport even for the out-of-core
	// workload: results are pinned bit-identical across budgets, so the
	// spilled runs must reproduce it.
	opt := w.opt
	opt.MemoryBudgetMB = 0
	var want map[string]float64
	switch w.alg {
	case "PR":
		ranks, _, err := chaos.RunPageRank(raw, 0, 5, opt)
		if err != nil {
			fail("typed run: %v", err)
			return bad
		}
		ref := refalgo.PageRank(graph.BuildAdjacency(raw, 0), 5)
		sum, maxRank := 0.0, 0.0
		for i, r := range ranks {
			// The tolerance of the native equivalence tests.
			if math.Abs(float64(r)-ref[i]) > 1e-3*math.Max(1, ref[i]) {
				fail("rank[%d] = %g, reference %g", i, r, ref[i])
				return bad
			}
			sum += float64(r)
			maxRank = max(maxRank, float64(r))
		}
		want = map[string]float64{"rank_sum": sum, "max_rank": maxRank}
	case "WCC":
		labels, _, err := chaos.RunWCC(raw, 0, opt)
		if err != nil {
			fail("typed run: %v", err)
			return bad
		}
		ref := refalgo.WCCLabels(graph.BuildAdjacency(edges, 0))
		sizes := make(map[uint32]int)
		largest := 0
		for i, l := range labels {
			if l != ref[i] {
				fail("label[%d] = %d, reference %d", i, l, ref[i])
				return bad
			}
			sizes[l]++
			largest = max(largest, sizes[l])
		}
		want = map[string]float64{"components": float64(len(sizes)), "largest": float64(largest)}
	}
	for i, r := range runs {
		if !maps.Equal(r.res.Summary, want) {
			fail("run %d: summary %v, typed run %v", i, r.res.Summary, want)
		}
		if w.opt.MemoryBudgetMB > 0 && r.rep.SpillBytes == 0 {
			fail("run %d: nothing spilled under a %d MiB budget", i, w.opt.MemoryBudgetMB)
		}
		if w.opt.Engine == chaos.EngineSim && !sameModel(r.rep, runs[0].rep) {
			fail("run %d: simulated figures differ from run 0: %+v vs %+v", i, r.rep, runs[0].rep)
		}
	}
	return bad
}

// sameModel reports whether two sim reports agree on every figure the
// model produces.
func sameModel(a, b *chaos.Report) bool {
	return a.SimulatedSeconds == b.SimulatedSeconds && a.PreprocessSeconds == b.PreprocessSeconds &&
		a.Iterations == b.Iterations && a.BytesRead == b.BytesRead && a.BytesWritten == b.BytesWritten &&
		a.StealsAccepted == b.StealsAccepted && a.StealsRejected == b.StealsRejected &&
		a.DeviceUtilization == b.DeviceUtilization
}
