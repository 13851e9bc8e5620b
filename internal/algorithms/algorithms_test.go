package algorithms_test

import (
	"math"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/cluster"
	"chaos/internal/core"
	"chaos/internal/graph"
	"chaos/internal/refalgo"
	"chaos/internal/rmat"
)

// cfg builds a lab-scale config forcing ~2 partitions per machine.
func cfg(m int, n uint64, vbytes int) core.Config {
	c := core.DefaultConfig(cluster.SSD(m))
	c.ChunkBytes = 4 << 10
	c.VertexChunkBytes = 4 << 10
	c.MemBudget = int64(n)*int64(vbytes)/int64(2*m) + int64(vbytes)
	return c
}

func rmatEdges(scale int, weighted bool, seed int64) ([]graph.Edge, uint64) {
	g := rmat.New(scale, seed)
	g.Weighted = weighted
	return g.Generate(), g.NumVertices()
}

func TestBFSAllLevels(t *testing.T) {
	edges, n := rmatEdges(8, false, 7)
	und := graph.Undirected(edges)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
	values, _, err := core.Run(cfg(4, n, 5), &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if values[i].Level != want[i] {
			t.Fatalf("vertex %d: level %d, want %d", i, values[i].Level, want[i])
		}
	}
}

func TestBFSNonZeroRoot(t *testing.T) {
	edges, n := rmatEdges(7, false, 9)
	und := graph.Undirected(edges)
	root := graph.VertexID(17)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), root)
	values, _, err := core.Run(cfg(2, n, 5), &algorithms.BFS{Root: root}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if values[i].Level != want[i] {
			t.Fatalf("vertex %d: level %d, want %d", i, values[i].Level, want[i])
		}
	}
}

func TestWCCMatchesUnionFind(t *testing.T) {
	edges, n := rmatEdges(8, false, 11)
	und := graph.Undirected(edges)
	want := refalgo.WCCLabels(graph.BuildAdjacency(und, n))
	values, _, err := core.Run(cfg(4, n, 5), &algorithms.WCC{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if values[i].Label != want[i] {
			t.Fatalf("vertex %d: label %d, want %d", i, values[i].Label, want[i])
		}
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	edges, n := rmatEdges(8, true, 13)
	und := graph.Undirected(edges)
	want := refalgo.SSSPDistances(graph.BuildAdjacency(und, n), 0)
	values, _, err := core.Run(cfg(4, n, 5), &algorithms.SSSP{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		got, exp := values[i].Dist, want[i]
		if exp == algorithms.Inf {
			if got != algorithms.Inf {
				t.Fatalf("vertex %d: dist %g, want unreachable", i, got)
			}
			continue
		}
		if math.Abs(float64(got-exp)) > 1e-4*math.Max(1, float64(exp)) {
			t.Fatalf("vertex %d: dist %g, want %g", i, got, exp)
		}
	}
}

func TestPageRankMatchesPowerIteration(t *testing.T) {
	edges, n := rmatEdges(8, false, 15)
	want := refalgo.PageRank(graph.BuildAdjacency(edges, n), 5)
	values, _, err := core.Run(cfg(4, n, 8), &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Abs(float64(values[i].Rank)-want[i]) > 1e-3*math.Max(1, want[i]) {
			t.Fatalf("vertex %d: rank %g, want %g", i, values[i].Rank, want[i])
		}
	}
}

func TestMISIsMaximalIndependent(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		edges, n := rmatEdges(7, false, seed)
		und := graph.Undirected(edges)
		prog := &algorithms.MIS{}
		values, _, err := core.Run(cfg(4, n, 2), prog, graph.Edges(und), n)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]bool, n)
		for i := range values {
			in[i] = prog.InSet(values[i])
		}
		adj := graph.BuildAdjacency(und, n)
		if !refalgo.IsIndependentSet(adj, in) {
			t.Fatalf("seed %d: result is not independent", seed)
		}
		if !refalgo.IsMaximalIndependentSet(adj, in) {
			t.Fatalf("seed %d: result is not maximal", seed)
		}
	}
}

func TestMCSTMatchesKruskal(t *testing.T) {
	for _, seed := range []int64{5, 21} {
		edges, n := rmatEdges(7, true, seed)
		und := graph.Undirected(edges)
		wantW, wantE := refalgo.MSTWeight(graph.BuildAdjacency(und, n))
		prog := &algorithms.MCST{}
		_, _, err := core.Run(cfg(4, n, 8), prog, graph.Edges(und), n)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Edges != wantE {
			t.Fatalf("seed %d: %d forest edges, want %d", seed, prog.Edges, wantE)
		}
		if math.Abs(prog.Total-wantW) > 1e-3*math.Max(1, wantW) {
			t.Fatalf("seed %d: forest weight %g, want %g", seed, prog.Total, wantW)
		}
	}
}

func TestSCCMatchesTarjan(t *testing.T) {
	edges, n := rmatEdges(7, false, 23)
	want := refalgo.SCCIDs(graph.BuildAdjacency(edges, n))
	aug := algorithms.AugmentEdges(edges)
	values, _, err := core.Run(cfg(4, n, 11), &algorithms.SCC{}, graph.Edges(aug), n)
	if err != nil {
		t.Fatal(err)
	}
	// Compare partitions: same grouping, arbitrary labels.
	toRef := make(map[uint32]uint32)
	toGot := make(map[uint32]uint32)
	for i := range values {
		g, w := values[i].SCC, want[i]
		if r, ok := toRef[g]; ok {
			if r != w {
				t.Fatalf("vertex %d: SCC label %d maps to both %d and %d", i, g, r, w)
			}
		} else {
			toRef[g] = w
		}
		if r, ok := toGot[w]; ok {
			if r != g {
				t.Fatalf("vertex %d: reference SCC %d maps to both %d and %d", i, w, r, g)
			}
		} else {
			toGot[w] = g
		}
		if !values[i].Done {
			t.Fatalf("vertex %d left undecided", i)
		}
	}
}

func TestConductanceMatchesDirectCount(t *testing.T) {
	edges, n := rmatEdges(8, false, 29)
	adj := graph.BuildAdjacency(edges, n)
	want := refalgo.Conductance(adj, algorithms.InSubset)
	prog := &algorithms.Conductance{}
	values, run, err := core.Run(cfg(4, n, 13), prog, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Aggregate(values)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("conductance %g, want %g", got, want)
	}
	if run.Iterations != 1 {
		t.Errorf("conductance took %d iterations, want 1", run.Iterations)
	}
}

func TestSpMVMatchesDirectProduct(t *testing.T) {
	edges, n := rmatEdges(8, true, 31)
	adj := graph.BuildAdjacency(edges, n)
	prog := &algorithms.SpMV{}
	values, _, err := core.Run(cfg(4, n, 8), prog, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, n)
	for i := range x {
		x[i] = values[i].X
	}
	want := refalgo.SpMV(adj, x)
	for i := range values {
		if math.Abs(float64(values[i].Y)-want[i]) > 1e-3*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("vertex %d: y %g, want %g", i, values[i].Y, want[i])
		}
	}
}

func TestBPMatchesSequentialRecurrence(t *testing.T) {
	edges, n := rmatEdges(7, true, 37)
	prog := &algorithms.BP{Iterations: 4}
	values, _, err := core.Run(cfg(4, n, 4), prog, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.BPBeliefs(graph.BuildAdjacency(edges, n), prog.Prior, 4)
	for i := range values {
		if math.Abs(float64(values[i].Belief-want[i])) > 1e-2 {
			t.Fatalf("vertex %d: belief %g, want %g", i, values[i].Belief, want[i])
		}
	}
}

func TestAugmentEdgesTagsDirections(t *testing.T) {
	in := []graph.Edge{{Src: 1, Dst: 2}}
	out := algorithms.AugmentEdges(in)
	if len(out) != 2 {
		t.Fatalf("got %d edges, want 2", len(out))
	}
	if out[0].Weight != 0 || out[1].Weight != 1 {
		t.Errorf("direction tags wrong: %+v", out)
	}
	if out[1].Src != 2 || out[1].Dst != 1 {
		t.Errorf("reverse edge wrong: %+v", out[1])
	}
}
