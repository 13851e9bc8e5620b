package core

import (
	"runtime"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/cluster"
	"chaos/internal/graph"
	"chaos/internal/metrics"
	"chaos/internal/sim"
)

// goldenRun is the slice of metrics.Run the paper-facing figures are
// built from. The determinism tests pin these figures across worker
// counts within one commit; this test pins them across commits: the
// literals below were captured on the commit before the byte plane was
// made allocation-free (PR 13), and a change to the data plane that is
// meant to be behaviour-preserving must leave them untouched. A change
// that is meant to move the evaluation (a new cost model, a different
// placement draw) re-captures them and says so.
type goldenRun struct {
	Runtime, Preprocess            sim.Time
	Iterations                     int
	BytesRead, BytesWritten        int64
	StealsAccepted, StealsRejected int
}

func goldenOf(r *metrics.Run) goldenRun {
	return goldenRun{
		Runtime: r.Runtime, Preprocess: r.Preprocess, Iterations: r.Iterations,
		BytesRead: r.BytesRead, BytesWritten: r.BytesWritten,
		StealsAccepted: r.StealsAccepted, StealsRejected: r.StealsRejected,
	}
}

func TestGoldenReports(t *testing.T) {
	edges, n := testGraph(10, false)

	_, wcc, err := Run(testConfig(4, n, 8), &algorithms.WCC{}, graph.Edges(graph.Undirected(edges)), n)
	if err != nil {
		t.Fatal(err)
	}
	wantWCC := goldenRun{Runtime: 2210312, Preprocess: 380958, Iterations: 4,
		BytesRead: 1879568, BytesWritten: 810736, StealsAccepted: 13, StealsRejected: 251}
	if got := goldenOf(wcc); got != wantWCC {
		t.Errorf("WCC report moved:\n got %#v\nwant %#v", got, wantWCC)
	}

	_, pr, err := Run(testConfig(4, n, 8), &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	wantPR := goldenRun{Runtime: 2281694, Preprocess: 212712, Iterations: 5,
		BytesRead: 1543168, BytesWritten: 835584, StealsAccepted: 19, StealsRejected: 335}
	if got := goldenOf(pr); got != wantPR {
		t.Errorf("PageRank report moved:\n got %#v\nwant %#v", got, wantPR)
	}
}

// TestCombinerGoldenReport pins a combining DES run across commits, as
// TestGoldenReports pins plain ones. Its partitions hold more distinct
// destinations than a chunk has records, so the combiner buffer drains
// in mid-phase, and each drained chunk must leave as a chunk of its own
// (Wire.PutChunk): cut at the Wire's limit instead, it reads 11203846.
// Captured on the commit before updates were combined in one place.
func TestCombinerGoldenReport(t *testing.T) {
	edges, n := testGraph(13, false)
	cfg := testConfig(2, n, 8)
	cfg.CombineUpdates = true
	_, pr, err := Run(cfg, &algorithms.PageRank{Iterations: 3}, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenRun{Runtime: 11150788, Preprocess: 2772702, Iterations: 3,
		BytesRead: 5798592, BytesWritten: 2407104, StealsAccepted: 7, StealsRejected: 29}
	if got := goldenOf(pr); got != want {
		t.Errorf("combining PageRank report moved:\n got %#v\nwant %#v", got, want)
	}
}

// TestDefaultChunkAllocationFollowsData runs a small graph on many
// machines at the default 4 MiB chunk size, where no (machine,
// partition) buffer comes near filling a chunk: what the run allocates
// must follow the bytes it moves, not machines x partitions x chunk
// size (reserving every buffer at chunk capacity cost this run 7 GiB and
// 12 s; it takes about 20 MiB and 0.1 s).
func TestDefaultChunkAllocationFollowsData(t *testing.T) {
	const m = 16
	edges, n := testGraph(10, false)
	cfg := DefaultConfig(cluster.SSD(m))
	cfg.MemBudget = int64(n)*8/int64(2*m) + 8 // 2 partitions per machine
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, run, err := Run(cfg, &algorithms.WCC{}, graph.Edges(graph.Undirected(edges)), n)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if cfg.ChunkBytes != 4<<20 || run.BytesWritten > 4<<20 {
		t.Fatalf("want a run that fills no chunk: chunk %d bytes, %d bytes written", cfg.ChunkBytes, run.BytesWritten)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d KiB for %d KiB written, %d KiB read", got>>10, run.BytesWritten>>10, run.BytesRead>>10)
	if limit := uint64(64 << 20); got > limit {
		t.Errorf("allocated %d MiB moving %d KiB, want at most %d MiB", got>>20, run.BytesWritten>>10, limit>>20)
	}
}
