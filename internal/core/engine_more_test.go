package core

import (
	"math"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/cluster"
	"chaos/internal/graph"
	"chaos/internal/refalgo"
)

func TestTinyGraphs(t *testing.T) {
	// Single vertex with a self-loop.
	edges := []graph.Edge{{Src: 0, Dst: 0}}
	values, _, err := Run(testConfig(2, 1, 5), &algorithms.BFS{}, edges, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 || values[0].Level != 0 {
		t.Errorf("single vertex: %+v", values)
	}
	// Two vertices, one edge, more machines than vertices.
	edges = []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}
	values, _, err = Run(testConfig(4, 2, 5), &algorithms.BFS{}, edges, 2)
	if err != nil {
		t.Fatal(err)
	}
	if values[1].Level != 1 {
		t.Errorf("two vertices: %+v", values)
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	if _, _, err := Run(testConfig(1, 1, 5), &algorithms.BFS{}, nil, 0); err == nil {
		t.Error("empty graph should error")
	}
}

func TestVertexCountInferred(t *testing.T) {
	edges := graph.Undirected([]graph.Edge{{Src: 0, Dst: 7}})
	values, _, err := Run(testConfig(2, 8, 5), &algorithms.BFS{}, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 8 {
		t.Errorf("inferred %d vertices, want 8", len(values))
	}
}

func TestHDDSlowerThanSSDProportionally(t *testing.T) {
	edges, n := testGraph(9, false)
	ssdCfg := testConfig(4, n, 8)
	_, ssd, err := Run(ssdCfg, &algorithms.PageRank{Iterations: 3}, edges, n)
	if err != nil {
		t.Fatal(err)
	}
	hddCfg := ssdCfg
	hddCfg.Spec = cluster.ScaleLatencies(cluster.HDD(4), float64(ssdCfg.ChunkBytes)/float64(4<<20))
	_, hdd, err := Run(hddCfg, &algorithms.PageRank{Iterations: 3}, edges, n)
	if err != nil {
		t.Fatal(err)
	}
	ratio := hdd.Runtime.Seconds() / ssd.Runtime.Seconds()
	// HDD bandwidth is half the SSD's; Figure 11 expects roughly
	// inverse-proportional runtime.
	if ratio < 1.5 || ratio > 4 {
		t.Errorf("HDD/SSD ratio %.2f, want about 2", ratio)
	}
}

func TestSlowNetworkHurtsMultiMachine(t *testing.T) {
	edges, n := testGraph(9, false)
	fast := testConfig(4, n, 8)
	_, f, err := Run(fast, &algorithms.PageRank{Iterations: 3}, edges, n)
	if err != nil {
		t.Fatal(err)
	}
	slow := fast
	slow.Spec = cluster.GigE1(fast.Spec)
	_, s, err := Run(slow, &algorithms.PageRank{Iterations: 3}, edges, n)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runtime <= f.Runtime {
		t.Errorf("1GigE (%v) should be slower than 40GigE (%v) on 4 machines", s.Runtime, f.Runtime)
	}
}

func TestStealingImprovesSkewedRuntime(t *testing.T) {
	// RMAT partition skew means the no-stealing configuration should be
	// slower at identical correctness (the alpha=0 column of Figure 18).
	edges, n := testGraph(10, false)
	und := graph.Undirected(edges)
	withSteal := testConfig(8, n, 5)
	_, a, err := Run(withSteal, &algorithms.BFS{}, und, n)
	if err != nil {
		t.Fatal(err)
	}
	noSteal := withSteal
	noSteal.Alpha = 0
	_, b, err := Run(noSteal, &algorithms.BFS{}, und, n)
	if err != nil {
		t.Fatal(err)
	}
	if b.Runtime.Seconds() < a.Runtime.Seconds()*0.95 {
		t.Errorf("no-stealing run (%v) clearly faster than stealing run (%v)", b.Runtime, a.Runtime)
	}
	if a.StealsAccepted == 0 {
		t.Error("no steals happened in the stealing configuration")
	}
}

func TestCentralDirectorySlowerAtScale(t *testing.T) {
	edges, n := testGraph(10, false)
	cfg := testConfig(8, n, 8)
	_, chaosRun, err := Run(cfg, &algorithms.PageRank{Iterations: 3}, edges, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CentralDirectory = true
	_, central, err := Run(cfg, &algorithms.PageRank{Iterations: 3}, edges, n)
	if err != nil {
		t.Fatal(err)
	}
	if central.Runtime <= chaosRun.Runtime {
		t.Errorf("central directory (%v) should be slower than randomized placement (%v)",
			central.Runtime, chaosRun.Runtime)
	}
}

func TestWindowOneUnderutilizesDevices(t *testing.T) {
	edges, n := testGraph(10, false)
	cfg := testConfig(8, n, 8)
	cfg.WindowOverride = 10
	_, batched, err := Run(cfg, &algorithms.PageRank{Iterations: 3}, edges, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WindowOverride = 1
	_, serial, err := Run(cfg, &algorithms.PageRank{Iterations: 3}, edges, n)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Runtime <= batched.Runtime {
		t.Errorf("window=1 (%v) should be slower than window=10 (%v), Figure 16",
			serial.Runtime, batched.Runtime)
	}
	if serial.DeviceUtilization >= batched.DeviceUtilization {
		t.Errorf("window=1 utilization %.2f should trail window=10 %.2f",
			serial.DeviceUtilization, batched.DeviceUtilization)
	}
}

func TestExactlyOnceUnderMaximumStealing(t *testing.T) {
	// With alpha=inf every proposal is accepted; the update counts (and
	// thus PageRank sums) must still be exact.
	edges, n := testGraph(8, false)
	want := refalgo.PageRank(graph.BuildAdjacency(edges, n), 4)
	cfg := testConfig(6, n, 8)
	cfg.Alpha = math.Inf(1)
	values, run, err := Run(cfg, &algorithms.PageRank{Iterations: 4}, edges, n)
	if err != nil {
		t.Fatal(err)
	}
	if run.StealsAccepted == 0 {
		// Possible on a tiny graph when phases drain before proposals
		// land; the correctness check below is what matters.
		t.Logf("always-steal run saw no accepted steals (%d rejected)", run.StealsRejected)
	}
	for i := range values {
		got := float64(values[i].Rank)
		if diff := got - want[i]; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("vertex %d: rank %g, want %g (duplicate or lost updates?)", i, got, want[i])
		}
	}
}
