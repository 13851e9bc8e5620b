package core

import (
	"reflect"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/core/drive"
	"chaos/internal/graph"
)

// TestTraceEmitsPerPhaseSpans: a traced run produces preprocess spans
// for every machine and scatter/gather/apply spans for every iteration,
// with coherent time ranges and tallies.
func TestTraceEmitsPerPhaseSpans(t *testing.T) {
	edges, n := testGraph(8, false)

	var spans []drive.Span
	cfg := testConfig(2, n, 8)
	cfg.Trace = func(s drive.Span) { spans = append(spans, s) }
	_, run, err := Run(cfg, &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("trace callback never fired")
	}
	perPhase := map[string]int{}
	machines := map[int]bool{}
	maxIter := -1
	for _, s := range spans {
		perPhase[s.Phase]++
		machines[s.Machine] = true
		if s.Iter > maxIter {
			maxIter = s.Iter
		}
		if s.Start < 0 || s.Dur < 0 {
			t.Fatalf("span with negative time range: %+v", s)
		}
		if s.Phase == drive.PhasePreprocess && s.Iter != -1 {
			t.Fatalf("preprocess span carries iteration %d, want -1", s.Iter)
		}
		if (s.Phase == drive.PhasePreprocess || s.Phase == drive.PhaseSteal) && s.Part != -1 {
			t.Fatalf("machine-scoped %s span carries partition %d, want -1", s.Phase, s.Part)
		}
		if (s.Phase == drive.PhaseScatter || s.Phase == drive.PhaseGather) && s.Chunks < 0 {
			t.Fatalf("span with negative chunk tally: %+v", s)
		}
	}
	if perPhase[drive.PhasePreprocess] != cfg.Spec.Machines {
		t.Errorf("%d preprocess spans, want one per machine (%d)", perPhase[drive.PhasePreprocess], cfg.Spec.Machines)
	}
	if len(machines) != cfg.Spec.Machines {
		t.Errorf("spans name %d machines, want %d", len(machines), cfg.Spec.Machines)
	}
	if maxIter != run.Iterations-1 {
		t.Errorf("last traced iteration %d, want %d", maxIter, run.Iterations-1)
	}
	for _, ph := range []string{drive.PhaseScatter, drive.PhaseGather, drive.PhaseApply} {
		// At least one span per (iteration, partition) master-side pass.
		if min := run.Iterations; perPhase[ph] < min {
			t.Errorf("%d %s spans over %d iterations", perPhase[ph], ph, run.Iterations)
		}
	}
	// Steal verdicts in the span stream agree with the run's report.
	var acc, rej int
	for _, s := range spans {
		acc += s.StealsAccepted
		rej += s.StealsRejected
	}
	if acc != run.StealsAccepted || rej != run.StealsRejected {
		t.Errorf("traced steal verdicts %d/%d, run reports %d/%d",
			acc, rej, run.StealsAccepted, run.StealsRejected)
	}
}

// TestTraceDoesNotPerturbRun is the determinism guarantee: a run with a
// trace subscriber produces bit-identical values, metrics and virtual
// clock to one without.
func TestTraceDoesNotPerturbRun(t *testing.T) {
	edges, n := testGraph(7, false)
	und := graph.Undirected(edges)

	plain, plainRun, err := Run(testConfig(2, n, 5), &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2, n, 5)
	fired := 0
	cfg.Trace = func(drive.Span) { fired++ }
	got, run, err := Run(cfg, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("trace callback never fired")
	}
	if !reflect.DeepEqual(plain, got) {
		t.Error("vertex values drifted under a trace subscriber")
	}
	if !reflect.DeepEqual(plainRun, run) {
		t.Errorf("run metrics drifted under a trace subscriber:\n%+v\nvs\n%+v", run, plainRun)
	}
}
