package native_test

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/core"
	"chaos/internal/core/native"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/refalgo"
)

// spillCfg is cfg with the transport forced into out-of-core mode: a
// budget far below the lab-scale update working set, spilling into a
// test-private directory so leftovers are detectable.
func spillCfg(t *testing.T, m int, n uint64, vbytes int) core.Config {
	t.Helper()
	c := cfg(m, n, vbytes)
	c.TransportBudgetBytes = 1 << 10 // ~4 KiB chunks, so every phase spills
	c.SpillDir = t.TempDir()
	return c
}

// requireNoSpillLeftovers fails when anything is left under the run's
// spill directory: every run — completed, interrupted or rolled back —
// must delete its temp dir.
func requireNoSpillLeftovers(t *testing.T, dir string) {
	t.Helper()
	var left []string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if p != dir {
			left = append(left, p)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking spill dir: %v", err)
	}
	if len(left) > 0 {
		t.Fatalf("spill files left behind: %v", left)
	}
}

// TestNativeSpillMatchesInMemory checks the out-of-core transport is
// invisible to results: a run with a budget small enough to spill every
// phase produces bit-identical vertex values to the unbudgeted zero-copy
// run, because spilled chunks stream back in the same (src, chunk) fold
// order they were produced in.
func TestNativeSpillMatchesInMemory(t *testing.T) {
	edges, n := rmatEdges(7, false, 21)
	mem, _, err := native.Run(cfg(4, n, 8), &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	c := spillCfg(t, 4, n, 8)
	spilled, run, err := native.Run(c, &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	if run.SpillBytes == 0 || run.SpillFiles == 0 {
		t.Fatalf("budget %d did not force spilling: %+v", c.TransportBudgetBytes, run)
	}
	if !reflect.DeepEqual(mem, spilled) {
		t.Error("out-of-core run diverged from the in-memory run")
	}
	requireNoSpillLeftovers(t, c.SpillDir)
}

// TestNativeSpillCountersMatchInMemory: for each of the ten programs a
// forced-spill run reports what the unbudgeted run does — values,
// BytesRead, BytesWritten, Iterations. The protocol counters are
// records × UpdBytes wherever a chunk sits, so a spilled chunk must not
// count the bytes it took on disk (24 a record for MCST and MIS, against
// 16 and 17 encoded).
func TestNativeSpillCountersMatchInMemory(t *testing.T) {
	edges, n := rmatEdges(7, false, 5)
	und := graph.Undirected(edges)
	wedges, _ := rmatEdges(7, true, 5)
	wund := graph.Undirected(wedges)
	spillAgrees(t, "BFS", func() gas.Program[algorithms.BFSVertex, uint32, uint32] { return &algorithms.BFS{} }, und, n, 5)
	spillAgrees(t, "WCC", func() gas.Program[algorithms.WCCVertex, uint32, uint32] { return &algorithms.WCC{} }, und, n, 5)
	spillAgrees(t, "SSSP", func() gas.Program[algorithms.SSSPVertex, float32, float32] { return &algorithms.SSSP{} }, wund, n, 5)
	spillAgrees(t, "PageRank", func() gas.Program[algorithms.PRVertex, float32, float64] { return &algorithms.PageRank{Iterations: 5} }, edges, n, 8)
	spillAgrees(t, "MIS", func() gas.Program[algorithms.MISVertex, algorithms.MISUpdate, algorithms.MISAccum] {
		return &algorithms.MIS{}
	}, und, n, 2)
	spillAgrees(t, "MCST", func() gas.Program[algorithms.MCSTVertex, algorithms.MCSTUpdate, algorithms.MCSTAccum] {
		return &algorithms.MCST{}
	}, wund, n, 8)
	spillAgrees(t, "SCC", func() gas.Program[algorithms.SCCVertex, uint32, algorithms.SCCAccum] { return &algorithms.SCC{} }, algorithms.AugmentEdges(edges), n, 11)
	spillAgrees(t, "Conductance", func() gas.Program[algorithms.CondVertex, uint32, algorithms.CondAccum] {
		return &algorithms.Conductance{}
	}, edges, n, 13)
	spillAgrees(t, "SpMV", func() gas.Program[algorithms.SpMVVertex, float32, float64] { return &algorithms.SpMV{} }, wedges, n, 8)
	spillAgrees(t, "BP", func() gas.Program[algorithms.BPVertex, float32, float64] { return &algorithms.BP{Iterations: 4} }, wedges, n, 4)
}

func spillAgrees[V, U, A any](t *testing.T, name string, prog func() gas.Program[V, U, A], edges []graph.Edge, n uint64, vbytes int) {
	t.Run(name, func(t *testing.T) {
		mem := cfg(2, n, vbytes)
		mem.TransportBudgetBytes = 0
		memV, memRun, err := native.Run(mem, prog(), graph.Edges(edges), n)
		if err != nil {
			t.Fatal(err)
		}
		c := spillCfg(t, 2, n, vbytes)
		spV, spRun, err := native.Run(c, prog(), graph.Edges(edges), n)
		if err != nil {
			t.Fatal(err)
		}
		if spRun.SpillBytes == 0 {
			t.Fatalf("budget %d did not force spilling", c.TransportBudgetBytes)
		}
		if !reflect.DeepEqual(memV, spV) {
			t.Error("values diverged")
		}
		if memRun.BytesRead != spRun.BytesRead || memRun.BytesWritten != spRun.BytesWritten || memRun.Iterations != spRun.Iterations {
			t.Errorf("in memory: read %d, written %d, %d iterations; spilled: read %d, written %d, %d iterations",
				memRun.BytesRead, memRun.BytesWritten, memRun.Iterations, spRun.BytesRead, spRun.BytesWritten, spRun.Iterations)
		}
		requireNoSpillLeftovers(t, c.SpillDir)
	})
}

// ptrUpd is an update payload that holds a pointer: its records cannot
// spill as raw bytes.
type ptrUpd struct{ Src *graph.VertexID }

// maxInID is a one-iteration toy program over ptrUpd: each vertex ends
// with the largest of its own ID and its in-neighbours' IDs.
type maxInID struct{}

func (maxInID) Name() string                                { return "maxInID" }
func (maxInID) Weighted() bool                              { return false }
func (maxInID) NeedsDegrees() bool                          { return false }
func (maxInID) Init(id graph.VertexID, v *uint32, _ uint32) { *v = uint32(id) }
func (maxInID) Scatter(_ int, e graph.Edge, _ *uint32) (graph.VertexID, ptrUpd, bool) {
	src := e.Src
	return e.Dst, ptrUpd{Src: &src}, true
}
func (maxInID) InitAccum() uint32                           { return 0 }
func (maxInID) Gather(a uint32, u ptrUpd, _ *uint32) uint32 { return max(a, uint32(*u.Src)) }
func (maxInID) Merge(a, b uint32) uint32                    { return max(a, b) }
func (maxInID) Apply(_ int, _ graph.VertexID, v *uint32, a uint32) bool {
	if a > *v {
		*v = a
		return true
	}
	return false
}
func (maxInID) Converged(int, uint64) bool     { return true }
func (maxInID) VertexCodec() gas.Codec[uint32] { return gas.Uint32Codec() }
func (maxInID) AccumBytes() int                { return 4 }
func (maxInID) UpdateCodec() gas.Codec[ptrUpd] {
	return gas.Codec[ptrUpd]{
		Bytes: 4,
		Put:   func(buf []byte, v *ptrUpd) { binary.LittleEndian.PutUint32(buf, uint32(*v.Src)) },
		Get: func(buf []byte, v *ptrUpd) {
			src := graph.VertexID(binary.LittleEndian.Uint32(buf))
			v.Src = &src
		},
	}
}

// TestNativeSpillRefusesPointerUpdates: under a budget, a program whose
// update type can hold a pointer fails its run with an error naming the
// type — no panic, no spill directory left behind — and without one it
// runs as any other.
func TestNativeSpillRefusesPointerUpdates(t *testing.T) {
	edges, n := rmatEdges(6, false, 3)
	c := spillCfg(t, 2, n, 4)
	if _, _, err := native.Run(c, maxInID{}, graph.Edges(edges), n); err == nil || !strings.Contains(err.Error(), "native_test.ptrUpd") {
		t.Fatalf("budgeted run: err = %v, want one naming native_test.ptrUpd", err)
	}
	requireNoSpillLeftovers(t, c.SpillDir)

	plain := cfg(2, n, 4)
	plain.TransportBudgetBytes = 0
	values, _, err := native.Run(plain, maxInID{}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, n)
	for i := range want {
		want[i] = uint32(i)
	}
	for _, e := range edges {
		want[e.Dst] = max(want[e.Dst], uint32(e.Src))
	}
	if !reflect.DeepEqual(values, want) {
		t.Error("unbudgeted run of the pointer-update program computed the wrong values")
	}
}

// TestNativeSpillMatchesReference runs a forced-spill BFS against the
// reference implementation (exact integer results, so any fold-order
// corruption in the spill round-trip is loud).
func TestNativeSpillMatchesReference(t *testing.T) {
	edges, n := rmatEdges(8, false, 7)
	und := graph.Undirected(edges)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
	for _, m := range machineCounts {
		c := spillCfg(t, m, n, 5)
		values, run, err := native.Run(c, &algorithms.BFS{}, graph.Edges(und), n)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if run.SpillBytes == 0 {
			t.Fatalf("m=%d: no spill traffic recorded", m)
		}
		for i := range values {
			if values[i].Level != want[i] {
				t.Fatalf("m=%d vertex %d: level %d, want %d", m, i, values[i].Level, want[i])
			}
		}
		requireNoSpillLeftovers(t, c.SpillDir)
	}
}

// TestNativeSpillWeightedMatchesReference covers the float fold path
// (SSSP) under forced spilling.
func TestNativeSpillWeightedMatchesReference(t *testing.T) {
	edges, n := rmatEdges(7, true, 13)
	und := graph.Undirected(edges)
	want := refalgo.SSSPDistances(graph.BuildAdjacency(und, n), 0)
	c := spillCfg(t, 2, n, 5)
	values, _, err := native.Run(c, &algorithms.SSSP{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		got, exp := values[i].Dist, want[i]
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
	requireNoSpillLeftovers(t, c.SpillDir)
}

// TestNativeSpillCleanupOnInterrupt: a run stopped mid-flight at an
// iteration boundary still deletes its spill directory.
func TestNativeSpillCleanupOnInterrupt(t *testing.T) {
	edges, n := rmatEdges(7, false, 5)
	c := spillCfg(t, 2, n, 8)
	boundaries := 0
	c.Interrupt = func() bool {
		boundaries++
		return boundaries >= 2
	}
	_, _, err := native.Run(c, &algorithms.PageRank{Iterations: 10}, graph.Edges(edges), n)
	if err != core.ErrInterrupted {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	requireNoSpillLeftovers(t, c.SpillDir)
}

// TestNativeSpillCleanupAfterRollback: checkpoint rollback re-executes
// iterations (fresh spill traffic each attempt) and the run still ends
// with correct results and an empty spill directory.
func TestNativeSpillCleanupAfterRollback(t *testing.T) {
	edges, n := rmatEdges(7, false, 9)
	und := graph.Undirected(edges)
	want := refalgo.BFSLevels(graph.BuildAdjacency(und, n), 0)
	c := spillCfg(t, 2, n, 5)
	c.CheckpointEvery = 1
	c.FailAtIteration = 2
	values, run, err := native.Run(c, &algorithms.BFS{}, graph.Edges(und), n)
	if err != nil {
		t.Fatal(err)
	}
	if run.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", run.Recoveries)
	}
	for i := range values {
		if values[i].Level != want[i] {
			t.Fatalf("vertex %d after recovery: level %d, want %d", i, values[i].Level, want[i])
		}
	}
	requireNoSpillLeftovers(t, c.SpillDir)
}

// TestNativeSpillSurvivesRestart simulates the process-restart story:
// a fresh run pointed at a spill dir holding a dead run's orphan
// directory neither trips over it nor deletes it (boot-time sweeping is
// the service's job), and cleans up only its own files.
func TestNativeSpillSurvivesRestart(t *testing.T) {
	edges, n := rmatEdges(7, false, 3)
	c := spillCfg(t, 2, n, 8)
	orphan := filepath.Join(c.SpillDir, "chaos-spill-dead")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(orphan, "upd.s0000.d0001"), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := native.Run(c, &algorithms.PageRank{Iterations: 3}, graph.Edges(edges), n); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("run disturbed another run's spill dir: %v", err)
	}
	entries, err := os.ReadDir(c.SpillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("spill dir should hold only the orphan, got %d entries", len(entries))
	}
}

// TestNativeUnbudgetedRunNeverSpills pins the fast path: without a
// budget the transport stays in memory and reports zero spill traffic.
func TestNativeUnbudgetedRunNeverSpills(t *testing.T) {
	if os.Getenv("CHAOS_NATIVE_SPILL_BUDGET") != "" {
		t.Skip("package-wide forced spilling is on")
	}
	edges, n := rmatEdges(7, false, 3)
	c := cfg(2, n, 8)
	c.SpillDir = t.TempDir()
	_, run, err := native.Run(c, &algorithms.PageRank{Iterations: 3}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	if run.SpillBytes != 0 || run.SpillFiles != 0 {
		t.Fatalf("in-memory run reported spill traffic: %+v", run)
	}
	requireNoSpillLeftovers(t, c.SpillDir)
}
