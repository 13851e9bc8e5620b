package core

import (
	"math"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/cluster"
	"chaos/internal/graph"
	"chaos/internal/refalgo"
	"chaos/internal/rmat"
)

// testConfig returns a lab-scale configuration: small chunks and a vertex
// memory budget that forces several partitions per machine, so stealing
// and chunk-protocol paths are exercised even on tiny graphs. Fixed
// latencies scale with the chunk shrink factor, preserving the paper's
// latency-to-service ratios (see DESIGN.md).
func testConfig(m int, numVertices uint64, vertexBytes int) Config {
	const chunk = 4 << 10
	cfg := DefaultConfig(cluster.ScaleLatencies(cluster.SSD(m), chunk/float64(4<<20)))
	cfg.ChunkBytes = chunk
	cfg.VertexChunkBytes = chunk
	// Aim for 2 partitions per machine.
	cfg.MemBudget = int64(numVertices)*int64(vertexBytes)/int64(2*m) + int64(vertexBytes)
	return cfg
}

func testGraph(scale int, weighted bool) ([]graph.Edge, uint64) {
	g := rmat.New(scale, 42)
	g.Weighted = weighted
	return g.Generate(), g.NumVertices()
}

func TestBFSMatchesReferenceSingleMachine(t *testing.T) {
	edges, n := testGraph(8, false)
	und := graph.Undirected(edges)
	values, run, err := Run(testConfig(1, n, 5), &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
	for i := range values {
		if values[i].Level != want[i] {
			t.Fatalf("vertex %d: level %d, want %d", i, values[i].Level, want[i])
		}
	}
	if run.Iterations == 0 || run.Runtime == 0 {
		t.Errorf("stats not recorded: %+v", run)
	}
}

func TestBFSMatchesReferenceMultiMachine(t *testing.T) {
	edges, n := testGraph(8, false)
	und := graph.Undirected(edges)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
	for _, m := range []int{2, 4, 8} {
		values, _, err := Run(testConfig(m, n, 5), &algorithms.BFS{}, graph.Edges(und), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for i := range values {
			if values[i].Level != want[i] {
				t.Fatalf("m=%d vertex %d: level %d, want %d", m, i, values[i].Level, want[i])
			}
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	edges, n := testGraph(8, false)
	want := refalgo.PageRank(graph.BuildAdjacency(edges, n), 5)
	for _, m := range []int{1, 4} {
		values, _, err := Run(testConfig(m, n, 8), &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for i := range values {
			got := float64(values[i].Rank)
			if math.Abs(got-want[i]) > 1e-3*math.Max(1, want[i]) {
				t.Fatalf("m=%d vertex %d: rank %g, want %g", m, i, got, want[i])
			}
		}
	}
}

func TestResultsIdenticalAcrossClusterSizes(t *testing.T) {
	edges, n := testGraph(7, false)
	und := graph.Undirected(edges)
	base, _, err := Run(testConfig(1, n, 5), &algorithms.WCC{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{2, 5} {
		got, _, err := Run(testConfig(m, n, 5), &algorithms.WCC{}, graph.Edges(und), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for i := range got {
			if got[i].Label != base[i].Label {
				t.Fatalf("m=%d vertex %d: label %d, want %d", m, i, got[i].Label, base[i].Label)
			}
		}
	}
}

func TestStealingDoesNotChangeResults(t *testing.T) {
	edges, n := testGraph(7, false)
	und := graph.Undirected(edges)
	for _, alpha := range []float64{0, 1, math.Inf(1)} {
		cfg := testConfig(4, n, 5)
		cfg.Alpha = alpha
		values, _, err := Run(cfg, &algorithms.BFS{}, graph.Edges(und), n)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
		for i := range values {
			if values[i].Level != want[i] {
				t.Fatalf("alpha=%v vertex %d wrong", alpha, i)
			}
		}
	}
}

func TestBatchFactorDoesNotChangeResults(t *testing.T) {
	edges, n := testGraph(7, false)
	want := refalgo.PageRank(graph.BuildAdjacency(edges, n), 3)
	for _, w := range []int{1, 2, 10, 32} {
		cfg := testConfig(3, n, 8)
		cfg.WindowOverride = w
		values, _, err := Run(cfg, &algorithms.PageRank{Iterations: 3}, graph.Edges(edges), n)
		if err != nil {
			t.Fatalf("window=%d: %v", w, err)
		}
		for i := range values {
			if math.Abs(float64(values[i].Rank)-want[i]) > 1e-3*math.Max(1, want[i]) {
				t.Fatalf("window=%d vertex %d wrong", w, i)
			}
		}
	}
}

func TestCentralDirectoryModeCorrect(t *testing.T) {
	edges, n := testGraph(7, false)
	und := graph.Undirected(edges)
	cfg := testConfig(4, n, 5)
	cfg.CentralDirectory = true
	values, _, err := Run(cfg, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
	for i := range values {
		if values[i].Level != want[i] {
			t.Fatalf("vertex %d: level %d, want %d", i, values[i].Level, want[i])
		}
	}
}

func TestUtilizationFormula(t *testing.T) {
	// Equation 4 at the paper's example: k=5 keeps utilization >= 99.3%
	// for any machine count.
	for m := 2; m <= 64; m++ {
		if u := Utilization(m, 5); u < 0.993 {
			t.Errorf("rho(%d, 5) = %f, want >= 0.993", m, u)
		}
	}
	if u := Utilization(4, 1); math.Abs(u-(1-math.Pow(0.75, 4))) > 1e-12 {
		t.Errorf("rho(4,1) = %f", u)
	}
	if f := UtilizationFloor(5); math.Abs(f-(1-math.Exp(-5))) > 1e-12 {
		t.Errorf("floor(5) = %f", f)
	}
	// Utilization decreases with m toward the floor.
	if Utilization(4, 2) < Utilization(100, 2) {
		t.Error("utilization should fall with machine count")
	}
	if Utilization(1000, 2) < UtilizationFloor(2) {
		t.Error("utilization should stay above the asymptotic floor")
	}
}
