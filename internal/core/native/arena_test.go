package native

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"chaos/internal/algorithms"
	"chaos/internal/cluster"
	"chaos/internal/core"
	"chaos/internal/core/drive"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/raceflag"
	"chaos/internal/rmat"
)

// TestNativeSteadyStateAllocs holds the native update plane to allocating
// its update memory once per run, in memory and spilling: of iterations 6
// to 10 of a PageRank run, the median one allocates at most 1 % of an
// iteration's update records — the issue's 5 % per five iterations. At the
// parent every iteration allocated all of them. The median, not the sum:
// the arena still grows in the iteration where the run's concurrent need
// first reaches its maximum, and which iteration that is depends on how
// the machines' goroutines interleave (in memory on one core, one run in
// ten finds its maximum after the fifth and takes 6 % more there). For the
// same reason this is one run read at its decision points, not the
// difference of a 10- and a 5-iteration run, which moved between −5 % and
// +12 % when measured.
//
// Under a transport budget the budget must also be real: the arena's high
// water stays within the budget arithmetic of DESIGN.md ("One protocol, two
// transports") — what the transport may keep resident and, per machine, a
// window of chunk results (kernels ahead of their merge while it scatters,
// loads ahead of their fold while it gathers) plus the one slab a Put has
// handed over and the transport has not spilled yet — not a partition's
// whole output, which is more than four times that here.
//
// The pool is fixed at two workers, so the window, and with it the bound,
// is the same on every host. Measured at GOMAXPROCS 1, 2, 4 and 8: an
// iteration allocates 0.3 % (its tasks, closures and completion channels,
// half a kilobyte per chunk — which is why this is RMAT-17 in 256 KiB
// chunks and not the RMAT-12 of the issue, where those alone pass the
// bar), and the high water is 70 % to 92 % of the bound.
func TestNativeSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	edges := rmat.New(17, 7).Generate()
	iteration := int64(len(edges)) * int64(unsafe.Sizeof(drive.UpdRec[float32]{}))
	for _, budget := range []int64{0, 256 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			cfg := core.DefaultConfig(cluster.SSD(2))
			cfg.ChunkBytes = 256 << 10
			cfg.ComputeWorkers = 2
			cfg.TransportBudgetBytes = budget
			cfg.SpillDir = t.TempDir()
			var r *run[algorithms.PRVertex, float32, float64]
			var allocated [10]uint64 // by the end of each iteration
			var highWater int64
			// The progress hook runs once the iteration's machine goroutines
			// have returned and the pool is idle, just before the decision
			// point trims the arena and restarts its high-water mark.
			cfg.Progress = func(p drive.Progress) {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				allocated[p.Iterations-1] = m.TotalAlloc
				highWater = max(highWater, r.kern.ArenaHighWater())
			}
			r, err := newRun(cfg, &algorithms.PageRank{Iterations: len(allocated)}, graph.Edges(edges), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.execute(graph.Edges(edges)); err != nil {
				t.Fatal(err)
			}
			if budget > 0 && r.rmet.SpillBytes == 0 {
				t.Fatalf("nothing spilled under a %d-byte budget", budget)
			}
			var late []int64 // what iterations 6 to 10 allocated
			for i := 5; i < len(allocated); i++ {
				late = append(late, int64(allocated[i]-allocated[i-1]))
			}
			slices.Sort(late)
			if median := late[len(late)/2]; median > iteration/100 {
				t.Errorf("iterations 6-10 allocated %v bytes, the median more than 1 %% of an iteration's %d bytes of updates", late, iteration)
			}
			if budget == 0 {
				return
			}
			// In records of slab capacity: a chunk's output is as many
			// records as the chunk has edges, and a slab holds up to a
			// quarter more than was asked of it.
			chunk := int64(cfg.ChunkBytes / r.kern.EdgeFmt.EdgeSize())
			bound := (budget/int64(r.kern.UpdBytes) + int64(r.nm*(r.pool.Window()+1))*chunk) * 5 / 4
			whole := int64(len(r.edges[0])) * chunk
			if highWater > bound {
				t.Errorf("arena high water %d records, want at most %d (partition 0 emits %d)", highWater, bound, whole)
			}
		})
	}
}

// putLog records the Puts of a transport it otherwise forwards to.
type putLog struct {
	drive.Transport[float32]
	puts [][2]int // destination, records
}

func (l *putLog) Put(src, dst int, recs []drive.UpdRec[float32]) (int64, int) {
	l.puts = append(l.puts, [2]int{dst, len(recs)})
	return l.Transport.Put(src, dst, recs)
}

// TestScatterWindowKeepsMergeOrder: dispatching a partition's chunks
// through a bounded window instead of all at once leaves the merge order
// alone. On a real pool and on the inline one, the Puts of one
// scatterPartition are those of scattering the chunks one after another:
// chunk by chunk, destinations ascending.
func TestScatterWindowKeepsMergeOrder(t *testing.T) {
	gen := rmat.New(10, 5)
	edges := gen.Generate()
	for _, workers := range []int{4, 1} {
		cfg := core.DefaultConfig(cluster.SSD(2))
		cfg.ChunkBytes = 1 << 10
		cfg.ComputeWorkers = workers
		r, err := newRun(cfg, &algorithms.PageRank{Iterations: 1}, graph.Edges(edges), gen.NumVertices())
		if err != nil {
			t.Fatal(err)
		}
		r.pool = drive.NewPool(workers)
		r.preprocess(graph.Edges(edges))
		if len(r.edges[0]) < 4*r.pool.Window() {
			t.Fatalf("partition 0 has %d chunks, too few to outrun a window of %d", len(r.edges[0]), r.pool.Window())
		}
		var want [][2]int
		for _, data := range r.edges[0] {
			var out drive.ScatterOut[float32]
			r.kern.ScatterChunkTyped(0, 0, r.verts[0], data, &out)
			for dst, recs := range out.Typed {
				if len(recs) > 0 {
					want = append(want, [2]int{dst, len(recs)})
				}
			}
			r.kern.ReleaseScatterOut(&out)
		}
		log := &putLog{Transport: r.tr}
		r.tr = log
		r.scatterPartition(0, 0, 0, false)
		r.pool.Close()
		if !slices.Equal(log.puts, want) {
			t.Errorf("%d workers: %d Puts, not the %d of chunk order", workers, len(log.puts), len(want))
		}
	}
}

// TestFinishedRunIsCollectable: when a run returns, one garbage collection
// frees its record arena. The runtime keeps every used sync.Pool reachable
// for two collections after its last use, so a pool embedded in the Kernel
// kept the Kernel and every slab of its arena alive that long — and a
// process whose runs allocate little collects rarely, so several finished
// runs' arenas were live at once (a heap of 1 GB where 0.5 GB does).
func TestFinishedRunIsCollectable(t *testing.T) {
	gen := rmat.New(14, 3)
	edges := gen.Generate()
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	cfg := core.DefaultConfig(cluster.SSD(2))
	cfg.ChunkBytes = 64 << 10
	if _, _, err := Run(cfg, &algorithms.PageRank{Iterations: 3}, graph.Edges(edges), gen.NumVertices()); err != nil {
		t.Fatal(err)
	}
	arena := int64(len(edges)) * int64(unsafe.Sizeof(drive.UpdRec[float32]{}))
	if left := heap() - before; left > arena/4 {
		t.Errorf("%d bytes still live one collection after the run; its arena held about %d", left, arena)
	}
	runtime.KeepAlive(edges)
}

// storeRun runs prog natively through s, as the job service runs a job,
// and returns its record type and the largest arena high water it
// reached, in bytes, read at each decision point before the trim.
func storeRun[V, U, A any](t *testing.T, s *drive.SlabStore, prog gas.Program[V, U, A], edges []graph.Edge, n uint64) (reflect.Type, int64) {
	t.Helper()
	c := core.DefaultConfig(cluster.SSD(2))
	c.ChunkBytes = 4 << 10
	c.MemBudget = int64(n) * 4 // a few partitions per machine
	c.Slabs = s
	var r *run[V, U, A]
	var high int64
	c.Progress = func(drive.Progress) { high = max(high, r.kern.ArenaHighWater()) }
	r, err := newRun(c, prog, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.execute(graph.Edges(edges)); err != nil {
		t.Fatalf("%s: %v", prog.Name(), err)
	}
	return reflect.TypeFor[U](), high * int64(unsafe.Sizeof(drive.UpdRec[U]{}))
}

// TestSlabStoreBound: one store lent to a run of every algorithm in turn,
// twice over, never holds more than its bound. Runs come one at a time,
// so the bound is, summed over record types, the largest high water in
// bytes one run of the type reached.
func TestSlabStoreBound(t *testing.T) {
	gen := rmat.New(9, 3)
	gen.Weighted = true
	edges, n := gen.Generate(), gen.NumVertices()
	und := graph.Undirected(edges)
	aug := algorithms.AugmentEdges(edges)
	runs := []func(*drive.SlabStore) (reflect.Type, int64){
		func(s *drive.SlabStore) (reflect.Type, int64) { return storeRun(t, s, &algorithms.BFS{}, und, n) },
		func(s *drive.SlabStore) (reflect.Type, int64) { return storeRun(t, s, &algorithms.WCC{}, und, n) },
		func(s *drive.SlabStore) (reflect.Type, int64) { return storeRun(t, s, &algorithms.MCST{}, und, n) },
		func(s *drive.SlabStore) (reflect.Type, int64) { return storeRun(t, s, &algorithms.MIS{}, und, n) },
		func(s *drive.SlabStore) (reflect.Type, int64) { return storeRun(t, s, &algorithms.SSSP{}, und, n) },
		func(s *drive.SlabStore) (reflect.Type, int64) {
			return storeRun(t, s, &algorithms.PageRank{Iterations: 5}, edges, n)
		},
		func(s *drive.SlabStore) (reflect.Type, int64) { return storeRun(t, s, &algorithms.SCC{}, aug, n) },
		func(s *drive.SlabStore) (reflect.Type, int64) {
			return storeRun(t, s, &algorithms.Conductance{}, edges, n)
		},
		func(s *drive.SlabStore) (reflect.Type, int64) { return storeRun(t, s, &algorithms.SpMV{}, edges, n) },
		func(s *drive.SlabStore) (reflect.Type, int64) {
			return storeRun(t, s, &algorithms.BP{Iterations: 4}, edges, n)
		},
	}
	s := drive.NewSlabStore()
	high := make(map[reflect.Type]int64)
	for pass := range 2 {
		for i, run := range runs {
			typ, h := run(s)
			high[typ] = max(high[typ], h)
			var bound int64
			for _, h := range high {
				bound += h
			}
			if s.Bytes() > bound {
				t.Errorf("pass %d, run %d: the store holds %d bytes, past its bound of %d", pass, i, s.Bytes(), bound)
			}
			if s.Bytes() == 0 {
				t.Errorf("pass %d, run %d: the store holds nothing", pass, i)
			}
		}
	}
	t.Logf("%d record types; the store holds %d bytes", len(high), s.Bytes())
}
