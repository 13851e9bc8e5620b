package xstream

import (
	"math"
	"reflect"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/cluster"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/refalgo"
	"chaos/internal/rmat"
)

func rmatEdges(scale int, weighted bool, seed int64) ([]graph.Edge, uint64) {
	g := rmat.New(scale, seed)
	g.Weighted = weighted
	return g.Generate(), g.NumVertices()
}

// checkEveryForm runs a fresh program from newProg over edges read as a
// slice source and as §8 records in the program's format, each under one
// partition and under a budget that makes four, and hands every result
// to check. The records form must also agree with the slice form exactly:
// the same values, iterations and modeled time.
func checkEveryForm[V, U, A any, P gas.Program[V, U, A]](t *testing.T, newProg func() P, edges []graph.Edge, n uint64, check func(*testing.T, P, *Result[V])) {
	t.Helper()
	proto := newProg()
	f := graph.FormatFor(n, proto.Weighted())
	recs, err := graph.Records(f.EncodeEdges(nil, edges), f)
	if err != nil {
		t.Fatal(err)
	}
	vbytes := int64(proto.VertexCodec().Bytes)
	for _, b := range []struct {
		name   string
		budget int64
	}{{"one-partition", 0}, {"four-partitions", int64(n)*vbytes/4 + vbytes}} {
		var first *Result[V]
		for _, form := range []struct {
			name string
			src  graph.Source
		}{{"slice", graph.Edges(edges)}, {"records", recs}} {
			t.Run(b.name+"/"+form.name, func(t *testing.T) {
				prog := newProg()
				res, err := Run(Config{Spec: cluster.SSD(1), MemBudget: b.budget}, prog, form.src, n)
				if err != nil {
					t.Fatal(err)
				}
				check(t, prog, res)
				if first == nil {
					first = res
				} else if !reflect.DeepEqual(res, first) {
					t.Errorf("records run differs from the slice run: %d iterations in %v, want %d in %v (or values differ)",
						res.Iterations, res.Runtime, first.Iterations, first.Runtime)
				}
			})
		}
	}
}

// TestEveryProgramMatchesReference checks all ten programs against
// internal/refalgo, in the forms the native plane's suite uses: exact
// values for the discrete programs, MIS by independence and maximality,
// MCST by forest weight and size, the float programs within tolerance.
func TestEveryProgramMatchesReference(t *testing.T) {
	t.Run("BFS", func(t *testing.T) {
		edges, n := rmatEdges(8, false, 7)
		und := graph.Undirected(edges)
		want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
		checkEveryForm(t, func() *algorithms.BFS { return &algorithms.BFS{} }, und, n,
			func(t *testing.T, _ *algorithms.BFS, res *Result[algorithms.BFSVertex]) {
				for i, v := range res.Values {
					if v.Level != want[i] {
						t.Fatalf("vertex %d: level %d, want %d", i, v.Level, want[i])
					}
				}
			})
	})
	t.Run("WCC", func(t *testing.T) {
		edges, n := rmatEdges(8, false, 11)
		und := graph.Undirected(edges)
		want := refalgo.WCCLabels(graph.BuildAdjacency(und, n))
		checkEveryForm(t, func() *algorithms.WCC { return &algorithms.WCC{} }, und, n,
			func(t *testing.T, _ *algorithms.WCC, res *Result[algorithms.WCCVertex]) {
				for i, v := range res.Values {
					if v.Label != want[i] {
						t.Fatalf("vertex %d: label %d, want %d", i, v.Label, want[i])
					}
				}
			})
	})
	t.Run("SSSP", func(t *testing.T) {
		edges, n := rmatEdges(8, true, 13)
		und := graph.Undirected(edges)
		want := refalgo.SSSPDistances(graph.BuildAdjacency(und, n), 0)
		checkEveryForm(t, func() *algorithms.SSSP { return &algorithms.SSSP{} }, und, n,
			func(t *testing.T, _ *algorithms.SSSP, res *Result[algorithms.SSSPVertex]) {
				for i, v := range res.Values {
					got, exp := v.Dist, want[i]
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
			})
	})
	t.Run("PR", func(t *testing.T) {
		edges, n := rmatEdges(8, false, 15)
		want := refalgo.PageRank(graph.BuildAdjacency(edges, n), 5)
		checkEveryForm(t, func() *algorithms.PageRank { return &algorithms.PageRank{Iterations: 5} }, edges, n,
			func(t *testing.T, _ *algorithms.PageRank, res *Result[algorithms.PRVertex]) {
				for i, v := range res.Values {
					if math.Abs(float64(v.Rank)-want[i]) > 1e-3*math.Max(1, want[i]) {
						t.Fatalf("vertex %d: rank %g, want %g", i, v.Rank, want[i])
					}
				}
			})
	})
	t.Run("MIS", func(t *testing.T) {
		edges, n := rmatEdges(7, false, 17)
		und := graph.Undirected(edges)
		adj := graph.BuildAdjacency(und, n)
		checkEveryForm(t, func() *algorithms.MIS { return &algorithms.MIS{} }, und, n,
			func(t *testing.T, prog *algorithms.MIS, res *Result[algorithms.MISVertex]) {
				in := make([]bool, n)
				for i, v := range res.Values {
					in[i] = prog.InSet(v)
				}
				if !refalgo.IsIndependentSet(adj, in) {
					t.Fatal("result is not independent")
				}
				if !refalgo.IsMaximalIndependentSet(adj, in) {
					t.Fatal("result is not maximal")
				}
			})
	})
	t.Run("MCST", func(t *testing.T) {
		edges, n := rmatEdges(7, true, 21)
		und := graph.Undirected(edges)
		wantW, wantE := refalgo.MSTWeight(graph.BuildAdjacency(und, n))
		checkEveryForm(t, func() *algorithms.MCST { return &algorithms.MCST{} }, und, n,
			func(t *testing.T, prog *algorithms.MCST, _ *Result[algorithms.MCSTVertex]) {
				if prog.Edges != wantE {
					t.Fatalf("%d forest edges, want %d", prog.Edges, wantE)
				}
				if math.Abs(prog.Total-wantW) > 1e-3*math.Max(1, wantW) {
					t.Fatalf("forest weight %g, want %g", prog.Total, wantW)
				}
			})
	})
	t.Run("SCC", func(t *testing.T) {
		edges, n := rmatEdges(7, false, 23)
		want := refalgo.SCCIDs(graph.BuildAdjacency(edges, n))
		checkEveryForm(t, func() *algorithms.SCC { return &algorithms.SCC{} }, algorithms.AugmentEdges(edges), n,
			func(t *testing.T, _ *algorithms.SCC, res *Result[algorithms.SCCVertex]) {
				// Compare partitions: same grouping, arbitrary labels.
				toRef, toGot := map[uint32]uint32{}, map[uint32]uint32{}
				for i, v := range res.Values {
					g, w := v.SCC, want[i]
					if r, ok := toRef[g]; ok && r != w {
						t.Fatalf("vertex %d: SCC label %d maps to both %d and %d", i, g, r, w)
					}
					if r, ok := toGot[w]; ok && r != g {
						t.Fatalf("vertex %d: reference SCC %d maps to both %d and %d", i, w, r, g)
					}
					toRef[g], toGot[w] = w, g
					if !v.Done {
						t.Fatalf("vertex %d left undecided", i)
					}
				}
			})
	})
	t.Run("Cond", func(t *testing.T) {
		edges, n := rmatEdges(8, false, 29)
		want := refalgo.Conductance(graph.BuildAdjacency(edges, n), algorithms.InSubset)
		checkEveryForm(t, func() *algorithms.Conductance { return &algorithms.Conductance{} }, edges, n,
			func(t *testing.T, prog *algorithms.Conductance, res *Result[algorithms.CondVertex]) {
				if got := prog.Aggregate(res.Values); math.Abs(got-want) > 1e-9 {
					t.Fatalf("conductance %g, want %g", got, want)
				}
				if res.Iterations != 1 {
					t.Errorf("conductance took %d iterations, want 1", res.Iterations)
				}
			})
	})
	t.Run("SpMV", func(t *testing.T) {
		edges, n := rmatEdges(8, true, 31)
		adj := graph.BuildAdjacency(edges, n)
		checkEveryForm(t, func() *algorithms.SpMV { return &algorithms.SpMV{} }, edges, n,
			func(t *testing.T, _ *algorithms.SpMV, res *Result[algorithms.SpMVVertex]) {
				x := make([]float32, n)
				for i, v := range res.Values {
					x[i] = v.X
				}
				want := refalgo.SpMV(adj, x)
				for i, v := range res.Values {
					if math.Abs(float64(v.Y)-want[i]) > 1e-3*math.Max(1, math.Abs(want[i])) {
						t.Fatalf("vertex %d: y %g, want %g", i, v.Y, want[i])
					}
				}
			})
	})
	t.Run("BP", func(t *testing.T) {
		edges, n := rmatEdges(7, true, 37)
		prior := (&algorithms.BP{}).Prior
		want := refalgo.BPBeliefs(graph.BuildAdjacency(edges, n), prior, 4)
		checkEveryForm(t, func() *algorithms.BP { return &algorithms.BP{Iterations: 4} }, edges, n,
			func(t *testing.T, _ *algorithms.BP, res *Result[algorithms.BPVertex]) {
				for i, v := range res.Values {
					if math.Abs(float64(v.Belief-want[i])) > 1e-2 {
						t.Fatalf("vertex %d: belief %g, want %g", i, v.Belief, want[i])
					}
				}
			})
	})
}

func TestPageRankCorrect(t *testing.T) {
	g := rmat.New(8, 5)
	edges := g.Generate()
	n := g.NumVertices()
	res, err := Run(Config{Spec: cluster.SSD(1)}, &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.PageRank(graph.BuildAdjacency(edges, n), 5)
	for i := range res.Values {
		if math.Abs(float64(res.Values[i].Rank)-want[i]) > 1e-3*math.Max(1, want[i]) {
			t.Fatalf("vertex %d: rank %g, want %g", i, res.Values[i].Rank, want[i])
		}
	}
	if res.Iterations != 5 {
		t.Errorf("iterations = %d, want 5", res.Iterations)
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, err := Run(Config{Spec: cluster.SSD(1)}, &algorithms.BFS{}, graph.Edges(nil), 0); err == nil {
		t.Error("empty graph should error")
	}
}
