package native_test

import (
	"math"
	"os"
	"reflect"
	"strconv"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/cluster"
	"chaos/internal/core"
	"chaos/internal/core/drive"
	"chaos/internal/core/native"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/metrics"
	"chaos/internal/refalgo"
	"chaos/internal/rmat"
)

// cfg builds a lab-scale config forcing ~2 partitions per machine, the
// same shape the DES driver's equivalence tests use.
//
// CHAOS_NATIVE_SPILL_BUDGET (bytes), when set, forces the update
// transport into out-of-core mode for every test in this package: CI
// uses it to re-run the whole refalgo-equivalence suite with real
// spill-file traffic under -race. Bytes rather than MiB because the
// lab-scale working sets here are a few KiB — a 1 MiB floor would never
// spill.
func cfg(m int, n uint64, vbytes int) core.Config {
	c := core.DefaultConfig(cluster.SSD(m))
	c.ChunkBytes = 4 << 10
	c.VertexChunkBytes = 4 << 10
	c.MemBudget = int64(n)*int64(vbytes)/int64(2*m) + int64(vbytes)
	if v := os.Getenv("CHAOS_NATIVE_SPILL_BUDGET"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			panic("bad CHAOS_NATIVE_SPILL_BUDGET: " + err.Error())
		}
		c.TransportBudgetBytes = b
	}
	return c
}

func rmatEdges(scale int, weighted bool, seed int64) ([]graph.Edge, uint64) {
	g := rmat.New(scale, seed)
	g.Weighted = weighted
	return g.Generate(), g.NumVertices()
}

// machineCounts is the sweep every per-algorithm equivalence test runs:
// single machine, a small cluster, and a wider cluster (each with ~2
// partitions per machine, so 1, 4 and 16 partitions).
var machineCounts = []int{1, 2, 8}

func TestNativeBFSMatchesReference(t *testing.T) {
	edges, n := rmatEdges(8, false, 7)
	und := graph.Undirected(edges)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
	for _, m := range machineCounts {
		values, run, err := native.Run(cfg(m, n, 5), &algorithms.BFS{}, graph.Edges(und), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for i := range values {
			if values[i].Level != want[i] {
				t.Fatalf("m=%d vertex %d: level %d, want %d", m, i, values[i].Level, want[i])
			}
		}
		if run.Iterations == 0 || run.Runtime == 0 {
			t.Errorf("m=%d: stats not recorded: %+v", m, run)
		}
	}
}

func TestNativeWCCMatchesReference(t *testing.T) {
	edges, n := rmatEdges(8, false, 11)
	und := graph.Undirected(edges)
	want := refalgo.WCCLabels(graph.BuildAdjacency(und, n))
	for _, m := range machineCounts {
		values, _, err := native.Run(cfg(m, n, 5), &algorithms.WCC{}, graph.Edges(und), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for i := range values {
			if values[i].Label != want[i] {
				t.Fatalf("m=%d vertex %d: label %d, want %d", m, i, values[i].Label, want[i])
			}
		}
	}
}

func TestNativeSSSPMatchesReference(t *testing.T) {
	edges, n := rmatEdges(8, true, 13)
	und := graph.Undirected(edges)
	want := refalgo.SSSPDistances(graph.BuildAdjacency(und, n), 0)
	for _, m := range machineCounts {
		values, _, err := native.Run(cfg(m, n, 5), &algorithms.SSSP{}, graph.Edges(und), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for i := range values {
			got, exp := values[i].Dist, want[i]
			if exp == algorithms.Inf {
				if got != algorithms.Inf {
					t.Fatalf("m=%d vertex %d: dist %g, want unreachable", m, i, got)
				}
				continue
			}
			if math.Abs(float64(got-exp)) > 1e-4*math.Max(1, float64(exp)) {
				t.Fatalf("m=%d vertex %d: dist %g, want %g", m, i, got, exp)
			}
		}
	}
}

func TestNativePageRankMatchesReference(t *testing.T) {
	edges, n := rmatEdges(8, false, 15)
	want := refalgo.PageRank(graph.BuildAdjacency(edges, n), 5)
	for _, m := range machineCounts {
		values, _, err := native.Run(cfg(m, n, 8), &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for i := range values {
			if math.Abs(float64(values[i].Rank)-want[i]) > 1e-3*math.Max(1, want[i]) {
				t.Fatalf("m=%d vertex %d: rank %g, want %g", m, i, values[i].Rank, want[i])
			}
		}
	}
}

func TestNativeMISMatchesReference(t *testing.T) {
	edges, n := rmatEdges(7, false, 17)
	und := graph.Undirected(edges)
	adj := graph.BuildAdjacency(und, n)
	for _, m := range machineCounts {
		prog := &algorithms.MIS{}
		values, _, err := native.Run(cfg(m, n, 2), prog, graph.Edges(und), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		in := make([]bool, n)
		for i := range values {
			in[i] = prog.InSet(values[i])
		}
		if !refalgo.IsIndependentSet(adj, in) {
			t.Fatalf("m=%d: result is not independent", m)
		}
		if !refalgo.IsMaximalIndependentSet(adj, in) {
			t.Fatalf("m=%d: result is not maximal", m)
		}
	}
}

func TestNativeMCSTMatchesReference(t *testing.T) {
	edges, n := rmatEdges(7, true, 21)
	und := graph.Undirected(edges)
	wantW, wantE := refalgo.MSTWeight(graph.BuildAdjacency(und, n))
	for _, m := range machineCounts {
		prog := &algorithms.MCST{}
		_, _, err := native.Run(cfg(m, n, 8), prog, graph.Edges(und), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if prog.Edges != wantE {
			t.Fatalf("m=%d: %d forest edges, want %d", m, prog.Edges, wantE)
		}
		if math.Abs(prog.Total-wantW) > 1e-3*math.Max(1, wantW) {
			t.Fatalf("m=%d: forest weight %g, want %g", m, prog.Total, wantW)
		}
	}
}

func TestNativeSCCMatchesReference(t *testing.T) {
	edges, n := rmatEdges(7, false, 23)
	want := refalgo.SCCIDs(graph.BuildAdjacency(edges, n))
	aug := algorithms.AugmentEdges(edges)
	for _, m := range machineCounts {
		values, _, err := native.Run(cfg(m, n, 11), &algorithms.SCC{}, graph.Edges(aug), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		// Compare partitions: same grouping, arbitrary labels.
		toRef := make(map[uint32]uint32)
		toGot := make(map[uint32]uint32)
		for i := range values {
			g, w := values[i].SCC, want[i]
			if r, ok := toRef[g]; ok && r != w {
				t.Fatalf("m=%d vertex %d: SCC label %d maps to both %d and %d", m, i, g, r, w)
			}
			toRef[g] = w
			if r, ok := toGot[w]; ok && r != g {
				t.Fatalf("m=%d vertex %d: reference SCC %d maps to both %d and %d", m, i, w, r, g)
			}
			toGot[w] = g
			if !values[i].Done {
				t.Fatalf("m=%d: vertex %d left undecided", m, i)
			}
		}
	}
}

func TestNativeConductanceMatchesReference(t *testing.T) {
	edges, n := rmatEdges(8, false, 29)
	adj := graph.BuildAdjacency(edges, n)
	want := refalgo.Conductance(adj, algorithms.InSubset)
	for _, m := range machineCounts {
		prog := &algorithms.Conductance{}
		values, run, err := native.Run(cfg(m, n, 13), prog, graph.Edges(edges), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if got := prog.Aggregate(values); math.Abs(got-want) > 1e-9 {
			t.Fatalf("m=%d: conductance %g, want %g", m, got, want)
		}
		if run.Iterations != 1 {
			t.Errorf("m=%d: conductance took %d iterations, want 1", m, run.Iterations)
		}
	}
}

func TestNativeSpMVMatchesReference(t *testing.T) {
	edges, n := rmatEdges(8, true, 31)
	adj := graph.BuildAdjacency(edges, n)
	for _, m := range machineCounts {
		prog := &algorithms.SpMV{}
		values, _, err := native.Run(cfg(m, n, 8), prog, graph.Edges(edges), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		x := make([]float32, n)
		for i := range x {
			x[i] = values[i].X
		}
		want := refalgo.SpMV(adj, x)
		for i := range values {
			if math.Abs(float64(values[i].Y)-want[i]) > 1e-3*math.Max(1, math.Abs(want[i])) {
				t.Fatalf("m=%d vertex %d: y %g, want %g", m, i, values[i].Y, want[i])
			}
		}
	}
}

func TestNativeBPMatchesReference(t *testing.T) {
	edges, n := rmatEdges(7, true, 37)
	for _, m := range machineCounts {
		prog := &algorithms.BP{Iterations: 4}
		values, _, err := native.Run(cfg(m, n, 4), prog, graph.Edges(edges), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		want := refalgo.BPBeliefs(graph.BuildAdjacency(edges, n), prog.Prior, 4)
		for i := range values {
			if math.Abs(float64(values[i].Belief-want[i])) > 1e-2 {
				t.Fatalf("m=%d vertex %d: belief %g, want %g", m, i, values[i].Belief, want[i])
			}
		}
	}
}

// agreeExactly runs one program on both planes under the same
// configuration and requires what one shared decision policy promises:
// equal values, equal iteration counts, equal recoveries.
func agreeExactly[V, U, A any](t *testing.T, name string, c core.Config, prog func() gas.Program[V, U, A], edges []graph.Edge, n uint64) *metrics.Run {
	t.Helper()
	simV, simRun, err := core.Run(c, prog(), graph.Edges(edges), n)
	if err != nil {
		t.Fatalf("%s: sim: %v", name, err)
	}
	natV, natRun, err := native.Run(c, prog(), graph.Edges(edges), n)
	if err != nil {
		t.Fatalf("%s: native: %v", name, err)
	}
	if !reflect.DeepEqual(simV, natV) {
		t.Errorf("%s: drivers disagree on final vertex values", name)
	}
	if simRun.Iterations != natRun.Iterations || simRun.Recoveries != natRun.Recoveries {
		t.Errorf("%s: sim ran %d iterations with %d recoveries, native %d with %d",
			name, simRun.Iterations, simRun.Recoveries, natRun.Iterations, natRun.Recoveries)
	}
	return natRun
}

// TestNativeAgreesWithSimDriver runs the two drivers over the same graph
// with the same seed and compares final vertex values: exact equality
// for the discrete-valued algorithms (their folds are min/max/flag
// operations, order-independent in exact arithmetic), small relative
// tolerance where floating-point sums fold in different orders.
func TestNativeAgreesWithSimDriver(t *testing.T) {
	edges, n := rmatEdges(7, false, 42)
	und := graph.Undirected(edges)
	bfs := func() gas.Program[algorithms.BFSVertex, uint32, uint32] { return &algorithms.BFS{} }
	wcc := func() gas.Program[algorithms.WCCVertex, uint32, uint32] { return &algorithms.WCC{} }

	agreeExactly(t, "BFS", cfg(4, n, 5), bfs, und, n)
	agreeExactly(t, "WCC", cfg(4, n, 5), wcc, und, n)

	combine := cfg(4, n, 5)
	combine.CombineUpdates = true
	agreeExactly(t, "BFS with combiner", combine, bfs, und, n)

	recovery := cfg(4, n, 5)
	recovery.CheckpointEvery = 1
	recovery.FailAtIteration = 2
	if run := agreeExactly(t, "WCC with checkpoint and injected failure", recovery, wcc, und, n); run.Recoveries != 1 {
		t.Errorf("the injected failure fired %d times, want 1", run.Recoveries)
	}

	simPR, _, err := core.Run(cfg(4, n, 8), &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	natPR, _, err := native.Run(cfg(4, n, 8), &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range simPR {
		a, b := float64(simPR[i].Rank), float64(natPR[i].Rank)
		if math.Abs(a-b) > 1e-4*math.Max(1, math.Abs(a)) {
			t.Fatalf("PR vertex %d: sim %g vs native %g", i, a, b)
		}
	}
}

// TestNativeDeterministicForSeed checks run-to-run reproducibility: the
// fold orders that reach floating point are fixed, so two native runs of
// the same configuration produce bit-identical values and deterministic
// counters even though goroutine scheduling differs. Steal counters are
// excluded: they depend on host scheduling. The second shape —
// always-steal at m=8 with checkpoints — maximizes cross-machine
// interleaving of the streamed scatter→gather boundary, so a fold order
// that depended on the schedule would show up as float drift between its
// two runs; CI reruns it under -race, at GOMAXPROCS=2 and with
// CHAOS_NATIVE_SPILL_BUDGET=4096 (real spill traffic — the byte counters
// still agree because a chunk's encoded-equivalent size is the same
// spilled or resident).
func TestNativeDeterministicForSeed(t *testing.T) {
	edges7, n7 := rmatEdges(7, false, 3)
	edges8, n8 := rmatEdges(8, false, 21)
	streamed := cfg(8, n8, 8)
	streamed.Alpha = math.Inf(1)
	streamed.CheckpointEvery = 2
	for _, tc := range []struct {
		name  string
		c     core.Config
		edges []graph.Edge
		n     uint64
	}{
		{"m=4", cfg(4, n7, 8), edges7, n7},
		{"m=8 always-steal checkpointed", streamed, edges8, n8},
	} {
		v1, run1, err := native.Run(tc.c, &algorithms.PageRank{Iterations: 5}, graph.Edges(tc.edges), tc.n)
		if err != nil {
			t.Fatal(err)
		}
		v2, run2, err := native.Run(tc.c, &algorithms.PageRank{Iterations: 5}, graph.Edges(tc.edges), tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v1, v2) {
			t.Errorf("%s: two native runs of the same seed diverged", tc.name)
		}
		if run1.Iterations != run2.Iterations {
			t.Errorf("%s: iterations %d, then %d", tc.name, run1.Iterations, run2.Iterations)
		}
		if run1.BytesRead != run2.BytesRead || run1.BytesWritten != run2.BytesWritten {
			t.Errorf("%s: byte tallies diverged: (%d, %d), then (%d, %d)", tc.name,
				run1.BytesRead, run1.BytesWritten, run2.BytesRead, run2.BytesWritten)
		}
		if run1.CheckpointBytes != run2.CheckpointBytes {
			t.Errorf("%s: checkpoint bytes %d, then %d", tc.name, run1.CheckpointBytes, run2.CheckpointBytes)
		}
	}
}

func TestNativeInterruptStopsAtBoundary(t *testing.T) {
	edges, n := rmatEdges(7, false, 5)
	c := cfg(2, n, 8)
	boundaries := 0
	c.Interrupt = func() bool {
		boundaries++
		return boundaries >= 2
	}
	_, _, err := native.Run(c, &algorithms.PageRank{Iterations: 10}, graph.Edges(edges), n)
	if err != core.ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if boundaries != 2 {
		t.Errorf("interrupt polled %d times, want 2", boundaries)
	}
}

func TestNativeProgressReporting(t *testing.T) {
	edges, n := rmatEdges(7, false, 5)
	c := cfg(2, n, 8)
	var ticks []drive.Progress
	c.Progress = func(p drive.Progress) { ticks = append(ticks, p) }
	_, run, err := native.Run(c, &algorithms.PageRank{Iterations: 4}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) != run.Iterations {
		t.Fatalf("%d progress ticks for %d iterations", len(ticks), run.Iterations)
	}
	last := ticks[len(ticks)-1]
	if last.Iterations != run.Iterations {
		t.Errorf("last tick reports %d iterations, run has %d", last.Iterations, run.Iterations)
	}
	if last.BytesRead == 0 || last.WallSeconds == 0 {
		t.Errorf("final tick not populated: %+v", last)
	}
	if last.StealsRejected != run.StealsRejected {
		t.Errorf("last tick reports %d steals rejected, run has %d", last.StealsRejected, run.StealsRejected)
	}
	if last.SpillBytes != run.SpillBytes {
		t.Errorf("last tick reports %d spill bytes, run has %d", last.SpillBytes, run.SpillBytes)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i].Iterations != ticks[i-1].Iterations+1 || ticks[i].WallSeconds < ticks[i-1].WallSeconds {
			t.Errorf("ticks not monotonic: %+v -> %+v", ticks[i-1], ticks[i])
		}
	}
}

// TestNativeCheckpointRecovery injects a transient failure and checks the
// run recovers from the last committed checkpoint with correct results.
func TestNativeCheckpointRecovery(t *testing.T) {
	edges, n := rmatEdges(7, false, 9)
	und := graph.Undirected(edges)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
	c := cfg(2, n, 5)
	c.CheckpointEvery = 1
	c.FailAtIteration = 2 // transient failure after a checkpoint exists
	values, run, err := native.Run(c, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	if run.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", run.Recoveries)
	}
	if run.CheckpointBytes == 0 {
		t.Error("no checkpoint bytes recorded")
	}
	for i := range values {
		if values[i].Level != want[i] {
			t.Fatalf("vertex %d after recovery: level %d, want %d", i, values[i].Level, want[i])
		}
	}
}

func TestNativeCombinerPreservesResults(t *testing.T) {
	edges, n := rmatEdges(7, false, 15)
	want := refalgo.PageRank(graph.BuildAdjacency(edges, n), 5)
	c := cfg(2, n, 8)
	c.CombineUpdates = true
	values, _, err := native.Run(c, &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Abs(float64(values[i].Rank)-want[i]) > 1e-3*math.Max(1, want[i]) {
			t.Fatalf("vertex %d: rank %g, want %g", i, values[i].Rank, want[i])
		}
	}
}

func TestNativeEdgeRewritingPreservesMCST(t *testing.T) {
	edges, n := rmatEdges(7, true, 5)
	und := graph.Undirected(edges)
	wantW, wantE := refalgo.MSTWeight(graph.BuildAdjacency(und, n))
	c := cfg(2, n, 8)
	c.RewriteEdges = true
	prog := &algorithms.MCST{}
	_, _, err := native.Run(c, prog, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Edges != wantE {
		t.Fatalf("%d forest edges, want %d", prog.Edges, wantE)
	}
	if math.Abs(prog.Total-wantW) > 1e-3*math.Max(1, wantW) {
		t.Fatalf("forest weight %g, want %g", prog.Total, wantW)
	}
}

func TestNativeRejectsCentralDirectory(t *testing.T) {
	edges, n := rmatEdges(6, false, 1)
	c := cfg(2, n, 8)
	c.CentralDirectory = true
	if _, _, err := native.Run(c, &algorithms.PageRank{Iterations: 1}, graph.Edges(edges), n); err == nil {
		t.Fatal("central directory should be rejected by the native driver")
	}
}

// TestNativeStealingOnStreamedPath drives the pipelined layout with
// stealing fully on (alpha = infinity, m=8, so gather steals overlap
// running scatters) and checks results against the reference — under
// -race in CI, this is the pipeline's data-race harness.
func TestNativeStealingOnStreamedPath(t *testing.T) {
	edges, n := rmatEdges(8, false, 23)
	want := refalgo.PageRank(graph.BuildAdjacency(edges, n), 5)
	c := cfg(8, n, 8)
	c.Alpha = math.Inf(1)
	values, run, err := native.Run(c, &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Abs(float64(values[i].Rank)-want[i]) > 1e-3*math.Max(1, want[i]) {
			t.Fatalf("vertex %d: rank %g, want %g", i, values[i].Rank, want[i])
		}
	}
	if run.StealsAccepted == 0 {
		t.Error("always-steal run accepted no steals; the streamed steal path went unexercised")
	}
}

func TestNativeComputeWorkersDoNotChangeResults(t *testing.T) {
	edges, n := rmatEdges(7, false, 19)
	serial := cfg(2, n, 8)
	serial.ComputeWorkers = 1
	pooled := serial
	pooled.ComputeWorkers = 8
	v1, _, err := native.Run(serial, &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := native.Run(pooled, &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Error("native results differ across compute worker counts")
	}
}
