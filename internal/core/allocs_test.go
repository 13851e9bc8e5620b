package core

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"chaos/internal/algorithms"
	"chaos/internal/cluster"
	"chaos/internal/core/drive"
	"chaos/internal/graph"
	"chaos/internal/raceflag"
	"chaos/internal/rmat"
)

// TestDESSteadyStateAllocs is TestNativeSteadyStateAllocs for the DES
// driver: a run's chunk memory comes round again. Update chunks are arena
// slabs that the storage engines return when they delete an update set,
// and vertex sets come from a free list; so of iterations 6 to 10 of a
// PageRank run, the median one allocates at most half an iteration's
// update records. At the parent commit every update chunk and every
// vertex set was fresh memory, 1.6 iterations' worth of update records per
// iteration; with the recycling it is about a quarter (tasks, messages
// and accumulators). The median for the reason the native test gives:
// which iteration first reaches the run's peak need depends on how the
// pool's goroutines interleave with the simulation. The pool is fixed at
// two workers, so the figure is the same on any host.
func TestDESSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	gen := rmat.New(16, 7)
	edges := gen.Generate()
	iteration := int64(len(edges)) * int64(unsafe.Sizeof(drive.UpdRec[float32]{}))
	cfg := DefaultConfig(cluster.SSD(4))
	cfg.ChunkBytes = 64 << 10
	cfg.ComputeWorkers = 2
	var allocated [10]uint64 // by the end of each iteration
	cfg.Progress = func(p drive.Progress) {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		allocated[p.Iterations-1] = m.TotalAlloc
	}
	if _, _, err := Run(cfg, &algorithms.PageRank{Iterations: len(allocated)}, graph.Edges(edges), gen.NumVertices()); err != nil {
		t.Fatal(err)
	}
	var late []int64 // what iterations 6 to 10 allocated
	for i := 5; i < len(allocated); i++ {
		late = append(late, int64(allocated[i]-allocated[i-1]))
	}
	slices.Sort(late)
	median := late[len(late)/2]
	t.Logf("iterations 6-10 allocated %v bytes; an iteration's updates are %d bytes", late, iteration)
	if median > iteration/2 {
		t.Errorf("the median of iterations 6-10 allocated %d bytes, %d %% of an iteration's %d bytes of updates; want at most 50 %%",
			median, 100*median/iteration, iteration)
	}
}

// TestScatterInFlightIgnoresWorkers: a scatter task is dispatched when a
// storage engine serves its chunk and joined at the chunk's delivery, so
// the update records scatter holds out of the arena at one moment are
// bounded by the §6.5 request window whatever the pool's width. The run
// is DES PageRank on RMAT-16 as in TestDESSteadyStateAllocs; the figure
// is the arena's high-water mark, sampled at each decision point before
// Decide resets it. A run on two or four workers must stay within 3 % of
// the serial one's maximum; a task set dispatched for a whole partition
// when its stream starts reads about 12 % above it.
func TestScatterInFlightIgnoresWorkers(t *testing.T) {
	gen := rmat.New(16, 7)
	edges := gen.Generate()
	highWater := func(workers int) int64 {
		cfg := DefaultConfig(cluster.SSD(4))
		cfg.ChunkBytes = 64 << 10
		cfg.ComputeWorkers = workers
		var eng *engine[algorithms.PRVertex, float32, float64]
		var most int64
		cfg.Progress = func(drive.Progress) { most = max(most, eng.kern.ArenaHighWater()) }
		var err error
		if eng, err = newEngine(cfg, &algorithms.PageRank{Iterations: 5}, graph.Edges(edges), gen.NumVertices()); err != nil {
			t.Fatal(err)
		}
		if err := eng.execute(); err != nil {
			t.Fatal(err)
		}
		return most
	}
	serial := highWater(1)
	for _, workers := range []int{2, 4} {
		got := highWater(workers)
		t.Logf("%d workers: arena high water %d records; serial %d", workers, got, serial)
		if got > serial+serial*3/100 || got < serial-serial*3/100 {
			t.Errorf("%d workers held up to %d update records out of the arena, %+.1f %% against the serial run's %d; want within 3 %%",
				workers, got, 100*float64(got-serial)/float64(serial), serial)
		}
	}
}
