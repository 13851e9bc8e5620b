package core

import (
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/graph"
	"chaos/internal/refalgo"
)

func TestCheckpointingPreservesResults(t *testing.T) {
	edges, n := testGraph(7, false)
	und := graph.Undirected(edges)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
	cfg := testConfig(4, n, 5)
	cfg.CheckpointEvery = 1
	values, run, err := Run(cfg, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if values[i].Level != want[i] {
			t.Fatalf("vertex %d: level %d, want %d", i, values[i].Level, want[i])
		}
	}
	if run.CheckpointBytes == 0 {
		t.Error("checkpointing recorded no I/O")
	}
}

func TestCheckpointOverheadIsModest(t *testing.T) {
	// Figure 13: checkpoint overhead should be small (under 6% in the
	// paper; we allow a loose bound at lab scale where vertex state is a
	// larger share of total I/O).
	edges, n := testGraph(9, false)
	base := testConfig(4, n, 8)
	prog := &algorithms.PageRank{Iterations: 5}
	_, runBase, err := Run(base, prog, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	ck := base
	ck.CheckpointEvery = 1
	_, runCk, err := Run(ck, prog, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	if runCk.BytesWritten <= runBase.BytesWritten {
		t.Error("checkpointing should write extra bytes")
	}
	overhead := runCk.Runtime.Seconds()/runBase.Runtime.Seconds() - 1
	// Placement randomness differs between the runs, so allow noise on
	// the low side, but the overhead must stay modest (paper: under 6%
	// at scale; vertex state is a larger share of I/O at lab scale).
	if overhead < -0.05 || overhead > 0.5 {
		t.Errorf("checkpoint overhead %.1f%%, want small", 100*overhead)
	}
}

func TestFailureRecoveryFromCheckpoint(t *testing.T) {
	edges, n := testGraph(7, false)
	und := graph.Undirected(edges)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)

	cfg := testConfig(4, n, 5)
	cfg.CheckpointEvery = 1
	cfg.FailAtIteration = 2 // transient failure after a checkpoint exists
	values, run, err := Run(cfg, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	if run.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", run.Recoveries)
	}
	for i := range values {
		if values[i].Level != want[i] {
			t.Fatalf("after recovery, vertex %d: level %d, want %d", i, values[i].Level, want[i])
		}
	}
}

func TestFailureRecoveryBitIdenticalToCleanRun(t *testing.T) {
	edges, n := testGraph(7, false)
	prog := &algorithms.PageRank{Iterations: 6}
	clean := testConfig(2, n, 8)
	clean.CheckpointEvery = 2
	a, _, err := Run(clean, prog, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	failed := clean
	failed.FailAtIteration = 5
	b, runB, err := Run(failed, prog, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	if runB.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", runB.Recoveries)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vertex %d: %+v vs %+v after recovery", i, a[i], b[i])
		}
	}
}

func TestFailureWithoutCheckpointRejected(t *testing.T) {
	edges, n := testGraph(6, false)
	cfg := testConfig(2, n, 5)
	cfg.FailAtIteration = 2
	if _, _, err := Run(cfg, &algorithms.BFS{}, graph.Edges(edges), n); err == nil {
		t.Error("failure injection without checkpointing should be rejected")
	}
}

func TestRuntimeIncludesPreprocessing(t *testing.T) {
	edges, n := testGraph(7, false)
	_, run, err := Run(testConfig(2, n, 5), &algorithms.BFS{}, graph.Edges(graph.Undirected(edges)), n)
	if err != nil {
		t.Fatal(err)
	}
	if run.Preprocess <= 0 || run.Preprocess >= run.Runtime {
		t.Errorf("preprocess %v not within runtime %v", run.Preprocess, run.Runtime)
	}
}

func TestDeterministicRuntimeForSeed(t *testing.T) {
	edges, n := testGraph(7, false)
	und := graph.Undirected(edges)
	cfg := testConfig(4, n, 5)
	_, a, err := Run(cfg, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Run(cfg, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime || a.BytesRead != b.BytesRead {
		t.Errorf("identical seeds gave different runs: %v/%v vs %v/%v",
			a.Runtime, a.BytesRead, b.Runtime, b.BytesRead)
	}
	cfg2 := cfg
	cfg2.Seed = 99
	_, c, err := Run(cfg2, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	if c.Runtime == a.Runtime && c.BytesRead == a.BytesRead && c.StealsAccepted == a.StealsAccepted {
		t.Log("different seed produced identical run (possible but unlikely)")
	}
}
