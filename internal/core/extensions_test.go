package core

import (
	"math"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/graph"
	"chaos/internal/refalgo"
	"chaos/internal/storage"
)

func TestCombinerPreservesPageRank(t *testing.T) {
	edges, n := testGraph(8, false)
	want := refalgo.PageRank(graph.BuildAdjacency(edges, n), 5)
	cfg := testConfig(4, n, 8)
	cfg.CombineUpdates = true
	values, run, err := Run(cfg, &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Abs(float64(values[i].Rank)-want[i]) > 1e-3*math.Max(1, want[i]) {
			t.Fatalf("vertex %d: rank %g, want %g", i, values[i].Rank, want[i])
		}
	}
	// Combining must not increase the update volume.
	plain := cfg
	plain.CombineUpdates = false
	_, runPlain, err := Run(plain, &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	if run.BytesWritten > runPlain.BytesWritten {
		t.Errorf("combining wrote more bytes (%d) than plain (%d)", run.BytesWritten, runPlain.BytesWritten)
	}
}

func TestCombinerPreservesBFS(t *testing.T) {
	edges, n := testGraph(8, false)
	und := graph.Undirected(edges)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
	cfg := testConfig(3, n, 5)
	cfg.CombineUpdates = true
	values, _, err := Run(cfg, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if values[i].Level != want[i] {
			t.Fatalf("vertex %d: level %d, want %d", i, values[i].Level, want[i])
		}
	}
}

func TestCombinerRequiresImplementation(t *testing.T) {
	edges, n := testGraph(6, false)
	cfg := testConfig(2, n, 2)
	cfg.CombineUpdates = true
	// MIS has no Combiner (its updates are not mergeable).
	if _, _, err := Run(cfg, &algorithms.MIS{}, graph.Edges(graph.Undirected(edges)), n); err == nil {
		t.Error("combining without a Combiner implementation should error")
	}
}

func TestEdgeRewritingPreservesMCST(t *testing.T) {
	for _, m := range []int{1, 4} {
		edges, n := testGraph(8, true)
		und := graph.Undirected(edges)
		wantW, wantE := refalgo.MSTWeight(graph.BuildAdjacency(und, n))
		cfg := testConfig(m, n, 8)
		cfg.RewriteEdges = true
		prog := &algorithms.MCST{}
		_, run, err := Run(cfg, prog, graph.Edges(und), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if prog.Edges != wantE || math.Abs(prog.Total-wantW) > 1e-3*math.Max(1, wantW) {
			t.Fatalf("m=%d: forest (%g, %d), want (%g, %d)", m, prog.Total, prog.Edges, wantW, wantE)
		}
		// Compaction must reduce total edge reads versus the
		// non-rewriting run (later rounds stream fewer edges).
		plain := cfg
		plain.RewriteEdges = false
		prog2 := &algorithms.MCST{}
		_, runPlain, err := Run(plain, prog2, graph.Edges(und), n)
		if err != nil {
			t.Fatal(err)
		}
		if run.BytesRead >= runPlain.BytesRead {
			t.Errorf("m=%d: compaction read %d bytes, plain read %d — no shrink", m, run.BytesRead, runPlain.BytesRead)
		}
	}
}

func TestEdgeRewritingRequiresImplementation(t *testing.T) {
	edges, n := testGraph(6, false)
	cfg := testConfig(2, n, 5)
	cfg.RewriteEdges = true
	if _, _, err := Run(cfg, &algorithms.BFS{}, graph.Edges(graph.Undirected(edges)), n); err == nil {
		t.Error("rewriting without an EdgeRewriter implementation should error")
	}
}

func TestEdgeRewritingConfigConflicts(t *testing.T) {
	edges, n := testGraph(6, true)
	und := graph.Undirected(edges)
	cfg := testConfig(2, n, 8)
	cfg.RewriteEdges = true
	cfg.CentralDirectory = true
	if _, _, err := Run(cfg, &algorithms.MCST{}, graph.Edges(und), n); err == nil {
		t.Error("rewriting with the central directory should be rejected")
	}
	cfg = testConfig(2, n, 8)
	cfg.RewriteEdges = true
	cfg.CheckpointEvery = 1
	cfg.FailAtIteration = 2
	if _, _, err := Run(cfg, &algorithms.MCST{}, graph.Edges(und), n); err == nil {
		t.Error("rewriting with failure injection should be rejected")
	}
}

func TestVertexReplicationRecoversFromLostPrimaries(t *testing.T) {
	edges, n := testGraph(7, false)
	und := graph.Undirected(edges)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)

	cfg := testConfig(4, n, 5)
	cfg.ReplicateVertices = true
	eng, err := newEngine(cfg, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.execute(); err != nil {
		t.Fatal(err)
	}
	// Simulate a storage failure: drop every primary vertex chunk.
	nm := eng.layout.NumMachines
	for part := 0; part < eng.layout.NumPartitions; part++ {
		for idx := 0; idx < eng.kern.VertexChunks(part); idx++ {
			home := storage.VertexChunkHome(part, idx, nm)
			eng.stores[home].DropVertexChunk(part, idx)
		}
	}
	values, err := eng.collectValues()
	if err != nil {
		t.Fatalf("recovery from replicas failed: %v", err)
	}
	for i := range values {
		if values[i].Level != want[i] {
			t.Fatalf("vertex %d after replica recovery: level %d, want %d", i, values[i].Level, want[i])
		}
	}
}

func TestVertexReplicationWithoutFlagCannotRecover(t *testing.T) {
	edges, n := testGraph(6, false)
	und := graph.Undirected(edges)
	cfg := testConfig(3, n, 5)
	eng, err := newEngine(cfg, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.execute(); err != nil {
		t.Fatal(err)
	}
	nm := eng.layout.NumMachines
	for part := 0; part < eng.layout.NumPartitions; part++ {
		if eng.kern.VertexChunks(part) > 0 {
			home := storage.VertexChunkHome(part, 0, nm)
			eng.stores[home].DropVertexChunk(part, 0)
			break
		}
	}
	if _, err := eng.collectValues(); err == nil {
		t.Error("losing an unreplicated chunk should be unrecoverable")
	}
}

func TestReplicationDoublesVertexWriteTraffic(t *testing.T) {
	edges, n := testGraph(7, false)
	und := graph.Undirected(edges)
	base := testConfig(4, n, 5)
	_, plain, err := Run(base, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	repl := base
	repl.ReplicateVertices = true
	values, mirrored, err := Run(repl, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
	for i := range values {
		if values[i].Level != want[i] {
			t.Fatalf("vertex %d wrong with replication", i)
		}
	}
	if mirrored.BytesWritten <= plain.BytesWritten {
		t.Errorf("replication should write more: %d vs %d", mirrored.BytesWritten, plain.BytesWritten)
	}
}

func TestReplicaPlacementDistinctFromHome(t *testing.T) {
	for part := 0; part < 50; part++ {
		for idx := 0; idx < 50; idx++ {
			for _, m := range []int{2, 3, 8, 32} {
				h := storage.VertexChunkHome(part, idx, m)
				r := storage.VertexChunkReplica(part, idx, m)
				if h == r {
					t.Fatalf("replica co-located with home (part=%d idx=%d m=%d)", part, idx, m)
				}
				if r < 0 || r >= m {
					t.Fatalf("replica %d out of range", r)
				}
			}
		}
	}
	if storage.VertexChunkReplica(1, 1, 1) != 0 {
		t.Error("single machine replica must be machine 0")
	}
}
