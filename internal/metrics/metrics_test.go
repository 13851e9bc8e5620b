package metrics

import (
	"strings"
	"testing"

	"chaos/internal/sim"
)

func TestCategoriesCoverNames(t *testing.T) {
	cs := Categories()
	if len(cs) != 6 {
		t.Fatalf("got %d categories, want 6 (Figure 17)", len(cs))
	}
	want := []string{"gp,master==me", "gp,master!=me", "copy", "merge", "merge wait", "barrier"}
	for i, c := range cs {
		if c.String() != want[i] {
			t.Errorf("category %d = %q, want %q", i, c, want[i])
		}
	}
}

func TestMachineStatsAccumulate(t *testing.T) {
	var m MachineStats
	m.Add(Copy, 2*sim.Second)
	m.Add(Copy, 3*sim.Second)
	m.Add(Barrier, sim.Second)
	if m.Time[Copy] != 5*sim.Second {
		t.Errorf("copy = %v", m.Time[Copy])
	}
	if m.Total() != 6*sim.Second {
		t.Errorf("total = %v", m.Total())
	}
}

func TestRunFractions(t *testing.T) {
	r := NewRun("BFS", 2)
	r.Machines[0].Add(GPMasterMe, 3*sim.Second)
	r.Machines[1].Add(Barrier, sim.Second)
	if f := r.Fraction(GPMasterMe); f != 0.75 {
		t.Errorf("gp fraction = %f, want 0.75", f)
	}
	if f := r.Fraction(Barrier); f != 0.25 {
		t.Errorf("barrier fraction = %f, want 0.25", f)
	}
	if f := r.Fraction(Merge); f != 0 {
		t.Errorf("merge fraction = %f, want 0", f)
	}
}

func TestFractionEmptyRun(t *testing.T) {
	r := NewRun("x", 1)
	if r.Fraction(Copy) != 0 {
		t.Error("empty run should have zero fractions")
	}
	if r.AggregateBandwidth() != 0 {
		t.Error("empty run should have zero bandwidth")
	}
}

func TestAggregateBandwidth(t *testing.T) {
	r := NewRun("PR", 1)
	r.Runtime = 2 * sim.Second
	r.BytesRead = 300
	r.BytesWritten = 100
	if bw := r.AggregateBandwidth(); bw != 200 {
		t.Errorf("bandwidth = %f, want 200 B/s", bw)
	}
}

func TestRebalanceTimeIsWorstMachine(t *testing.T) {
	r := NewRun("BFS", 3)
	r.Machines[0].Add(Copy, sim.Second)
	r.Machines[1].Add(Copy, 2*sim.Second)
	r.Machines[1].Add(Merge, sim.Second)
	r.Machines[2].Add(MergeWait, sim.Second)
	if got := r.RebalanceTime(); got != 3*sim.Second {
		t.Errorf("rebalance = %v, want 3s (machine 1)", got)
	}
}

func TestRunString(t *testing.T) {
	r := NewRun("WCC", 1)
	r.Runtime = sim.Second
	r.Iterations = 7
	s := r.String()
	if !strings.Contains(s, "WCC") || !strings.Contains(s, "7 iters") {
		t.Errorf("summary %q missing fields", s)
	}
}
