package core

import (
	"errors"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/graph"
)

// TestInterruptStopsAtIterationBoundary: an Interrupt that fires after
// a couple of iterations must end the run with ErrInterrupted, well
// before the algorithm's natural iteration count, without deadlocking
// the simulation.
func TestInterruptStopsAtIterationBoundary(t *testing.T) {
	edges, n := testGraph(8, false)

	// 10 rounds of PageRank normally; the interrupt cuts it to 2.
	polls := 0
	cfg := testConfig(2, n, 8)
	cfg.Interrupt = func() bool {
		polls++
		return polls >= 2 // cancel at the second iteration boundary
	}
	values, run, err := Run(cfg, &algorithms.PageRank{Iterations: 10}, graph.Edges(edges), n)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if values != nil || run != nil {
		t.Error("interrupted run must not hand back partial values or stats")
	}
	if polls != 2 {
		t.Errorf("interrupt polled %d times, want exactly 2 (once per boundary)", polls)
	}
}

// TestInterruptNeverFiringChangesNothing: a non-nil Interrupt that
// always reports false must not perturb results or simulated time.
func TestInterruptNeverFiringChangesNothing(t *testing.T) {
	edges, n := testGraph(7, false)
	und := graph.Undirected(edges)
	plain, prep, err := Run(testConfig(2, n, 5), &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, n, 5)
	cfg.Interrupt = func() bool { return false }
	got, rep, err := Run(cfg, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runtime != prep.Runtime || rep.Iterations != prep.Iterations {
		t.Errorf("report drifted: %v/%d vs %v/%d", rep.Runtime, rep.Iterations, prep.Runtime, prep.Iterations)
	}
	for i := range got {
		if got[i].Level != plain[i].Level {
			t.Fatalf("vertex %d: level %d, want %d", i, got[i].Level, plain[i].Level)
		}
	}
}
