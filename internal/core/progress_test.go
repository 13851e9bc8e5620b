package core

import (
	"reflect"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/core/drive"
	"chaos/internal/graph"
)

// TestProgressReportsAtEveryBoundary: the callback fires once per
// iteration boundary with monotonic counters, and the final snapshot
// agrees with the run's own metrics.
func TestProgressReportsAtEveryBoundary(t *testing.T) {
	edges, n := testGraph(8, false)

	var ticks []drive.Progress
	cfg := testConfig(2, n, 8)
	cfg.Progress = func(p drive.Progress) { ticks = append(ticks, p) }
	_, run, err := Run(cfg, &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(ticks) != run.Iterations {
		t.Fatalf("%d progress ticks, want one per iteration (%d)", len(ticks), run.Iterations)
	}
	for i, p := range ticks {
		if p.Iterations != i+1 {
			t.Errorf("tick %d reports iteration %d", i, p.Iterations)
		}
		if i > 0 {
			prev := ticks[i-1]
			if p.SimulatedSeconds < prev.SimulatedSeconds || p.BytesRead < prev.BytesRead ||
				p.BytesWritten < prev.BytesWritten || p.StealsAccepted < prev.StealsAccepted {
				t.Errorf("tick %d counters regressed: %+v after %+v", i, p, prev)
			}
		}
	}
	last := ticks[len(ticks)-1]
	if last.Iterations != run.Iterations || last.StealsAccepted != run.StealsAccepted {
		t.Errorf("final tick %+v disagrees with run metrics (%d iters, %d steals)",
			last, run.Iterations, run.StealsAccepted)
	}
	// The final boundary precedes the run's unwind, and writes after the
	// last decision point (final apply) may still land; the snapshot must
	// never exceed the totals.
	if last.BytesRead > run.BytesRead || last.BytesWritten > run.BytesWritten {
		t.Errorf("final tick read/written %d/%d exceeds run totals %d/%d",
			last.BytesRead, last.BytesWritten, run.BytesRead, run.BytesWritten)
	}
}

// TestProgressDoesNotPerturbRun is the determinism guarantee: a run
// with a progress subscriber produces bit-identical values, metrics and
// virtual clock to one without.
func TestProgressDoesNotPerturbRun(t *testing.T) {
	edges, n := testGraph(7, false)
	und := graph.Undirected(edges)

	plain, plainRun, err := Run(testConfig(2, n, 5), &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, n, 5)
	ticks := 0
	cfg.Progress = func(drive.Progress) { ticks++ }
	got, run, err := Run(cfg, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	if ticks == 0 {
		t.Fatal("progress callback never fired")
	}
	if !reflect.DeepEqual(plain, got) {
		t.Error("vertex values drifted under a progress subscriber")
	}
	if !reflect.DeepEqual(plainRun, run) {
		t.Errorf("run metrics drifted under a progress subscriber:\n%+v\nvs\n%+v", run, plainRun)
	}
}
