package chaos

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"chaos/internal/graph"
	"chaos/internal/refalgo"
)

func labOptions(m int) Options {
	return Options{
		Machines:   m,
		ChunkBytes: 4 << 10,
		Seed:       1,
	}
}

// TestComputeWorkersDoNotChangeResults is the public-API face of the
// engine's determinism contract: for every algorithm, a serial run
// (ComputeWorkers = 1) and a pooled run produce bit-identical Results and
// Reports — including SimulatedSeconds and the full Figure 17 breakdown.
func TestComputeWorkersDoNotChangeResults(t *testing.T) {
	for _, alg := range Algorithms() {
		edges := GenerateRMAT(6, NeedsWeights(alg), 42)
		serial := labOptions(4)
		serial.MemBudgetBytes = 1 << 8 // several partitions per machine
		serial.ComputeWorkers = 1
		parallel := serial
		parallel.ComputeWorkers = 8
		res1, rep1, err := RunByNameResult(alg, edges, 0, serial)
		if err != nil {
			t.Fatalf("%s serial: %v", alg, err)
		}
		res2, rep2, err := RunByNameResult(alg, edges, 0, parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", alg, err)
		}
		if !reflect.DeepEqual(res1, res2) {
			t.Errorf("%s: results differ across worker counts:\nserial:   %+v\nparallel: %+v", alg, res1, res2)
		}
		if !reflect.DeepEqual(rep1, rep2) {
			t.Errorf("%s: reports differ across worker counts:\nserial:   %+v\nparallel: %+v", alg, rep1, rep2)
		}
	}
}

func TestRunBFSPublicAPI(t *testing.T) {
	edges := GenerateRMAT(8, false, 42)
	levels, rep, err := RunBFS(edges, 0, 0, labOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	und := graph.Undirected(edges)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, 0), 0)
	for i := range levels {
		if levels[i] != want[i] {
			t.Fatalf("vertex %d: level %d, want %d", i, levels[i], want[i])
		}
	}
	if rep.Algorithm != "BFS" || rep.Machines != 4 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.SimulatedSeconds <= 0 || rep.Iterations == 0 {
		t.Errorf("report stats missing: %+v", rep)
	}
}

func TestRunPageRankPublicAPI(t *testing.T) {
	edges := GenerateRMAT(8, false, 42)
	ranks, rep, err := RunPageRank(edges, 0, 5, labOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.PageRank(graph.BuildAdjacency(edges, 0), 5)
	for i := range ranks {
		if math.Abs(float64(ranks[i])-want[i]) > 1e-3*math.Max(1, want[i]) {
			t.Fatalf("vertex %d: rank %g, want %g", i, ranks[i], want[i])
		}
	}
	if rep.Iterations != 5 {
		t.Errorf("iterations = %d, want 5", rep.Iterations)
	}
}

func TestRunByNameAllAlgorithms(t *testing.T) {
	plain := GenerateRMAT(7, false, 7)
	weighted := GenerateRMAT(7, true, 7)
	for _, name := range Algorithms() {
		edges := plain
		if NeedsWeights(name) {
			edges = weighted
		}
		rep, err := RunByName(name, edges, 0, labOptions(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Algorithm != name {
			t.Errorf("%s: report says %s", name, rep.Algorithm)
		}
		if rep.SimulatedSeconds <= 0 {
			t.Errorf("%s: no simulated time", name)
		}
	}
	if _, err := RunByName("NOPE", plain, 0, labOptions(1)); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestOptionsTranslate(t *testing.T) {
	o := Options{Machines: 8, Storage: HDD, Network: Net1GigE, Cores: 8, DisableStealing: true}
	cfg := o.config()
	if cfg.Spec.Machines != 8 || cfg.Spec.Cores != 8 {
		t.Errorf("spec wrong: %+v", cfg.Spec)
	}
	if cfg.Spec.StorageBytesPerSec != 200e6 {
		t.Errorf("HDD bandwidth wrong: %g", cfg.Spec.StorageBytesPerSec)
	}
	if cfg.Spec.NICBytesPerSec != 125e6 {
		t.Errorf("1GigE bandwidth wrong: %g", cfg.Spec.NICBytesPerSec)
	}
	if cfg.Alpha != 0 {
		t.Errorf("DisableStealing should give alpha 0, got %g", cfg.Alpha)
	}
	o2 := Options{AlwaysSteal: true}
	if !math.IsInf(o2.config().Alpha, 1) {
		t.Error("AlwaysSteal should give alpha = +inf")
	}
	if (Options{}).config().Alpha != 1 {
		t.Error("default alpha should be 1")
	}
}

func TestBreakdownFractionsSumToOne(t *testing.T) {
	edges := GenerateRMAT(8, false, 11)
	opt := labOptions(4)
	opt.MemBudgetBytes = int64(NumVertices(edges)) * 8 / 4 // force partitions
	_, rep, err := RunPageRank(edges, 0, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, f := range rep.Breakdown {
		if f < 0 || f > 1 {
			t.Errorf("fraction out of range: %v", rep.Breakdown)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("breakdown sums to %g, want 1", sum)
	}
}

func TestUndirectedAndNumVertices(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 9}}
	if NumVertices(edges) != 10 {
		t.Errorf("NumVertices = %d", NumVertices(edges))
	}
	if len(Undirected(edges)) != 2 {
		t.Error("Undirected should double the edge list")
	}
}

func TestTheoreticalUtilizationExports(t *testing.T) {
	if u := TheoreticalUtilization(32, 5); u < 0.99 {
		t.Errorf("rho(32,5) = %f", u)
	}
	if f := UtilizationFloor(5); math.Abs(f-(1-math.Exp(-5))) > 1e-12 {
		t.Errorf("floor(5) = %f", f)
	}
}

func TestWebGraphGeneratorExport(t *testing.T) {
	edges := GenerateWebGraph(500, 3)
	if len(edges) == 0 {
		t.Fatal("no edges generated")
	}
	if NumVertices(edges) > 500 {
		t.Errorf("vertex IDs out of range: %d", NumVertices(edges))
	}
}

// TestGenerateRMATRefusesScale: a scale outside rmat.CheckScale's [1,30]
// panics with its error before the edges are allocated — scale 31 would
// ask for 768 GiB of edges, and scale 60 and up once returned an empty
// graph — while a valid one generates 2^(scale+4) edges.
func TestGenerateRMATRefusesScale(t *testing.T) {
	for _, scale := range []int{0, 31, 60} {
		func() {
			defer func() {
				want := fmt.Sprintf("chaos: rmat scale %d out of range [1,30]", scale)
				if got := recover(); got != want {
					t.Errorf("GenerateRMAT(%d) panicked with %v, want %q", scale, got, want)
				}
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			defer func() {
				runtime.ReadMemStats(&after)
				if n := after.TotalAlloc - before.TotalAlloc; n > 4<<10 {
					t.Errorf("GenerateRMAT(%d) allocated %d bytes before refusing", scale, n)
				}
			}()
			GenerateRMAT(scale, false, 1)
		}()
	}
	if edges := GenerateRMAT(4, true, 1); len(edges) != 1<<8 || NumVertices(edges) > 1<<4 {
		t.Errorf("scale 4: %d edges on %d vertices, want 256 on at most 16", len(edges), NumVertices(edges))
	}
}
