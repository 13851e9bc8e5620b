package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"chaos"
	"chaos/internal/algorithms"
	"chaos/internal/core/drive"
	"chaos/internal/durable"
	"chaos/internal/graph"
	"chaos/internal/obs"
	"chaos/internal/partition"
	"chaos/internal/rmat"
	"chaos/internal/service"
	"chaos/internal/sim"
	"chaos/internal/storage"
)

const (
	probeChunk = 64 << 10 // the chunk size every workload runs with
	probeParts = 2        // partitions of the probes' layout
	mb         = 1e6
)

// sink keeps probe results alive so the compiler cannot drop the work.
var sink int

// probes is the state the layer probes share: an R-MAT graph cut to the
// probe scale, its edge chunks in the layout the kernels expect, and the
// bookkeeping that turns a timed call into a named metric.
type probes struct {
	m    *metrics
	tr   *tracer
	reps int
	seed int64
	tmp  string
	err  error // the first failure of a call a probe made

	n      uint64
	edges  []graph.Edge
	layout *partition.Layout
	// chunks[p] holds partition p's edges encoded in 64 KiB chunks.
	chunks [][][]byte
	nchunk int
}

// check keeps the first error of the calls the probes make; their
// closures have nowhere to return it.
func (p *probes) check(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// timed runs fn reps times under one span and returns the median seconds.
func (p *probes) timed(name string, fn func()) float64 {
	id := p.tr.begin(0, p.tr.newOp(), "probe:"+name)
	defer p.tr.end(id)
	return timeIt(p.reps, fn)
}

// rate reports work per second of fn as metric name.
func (p *probes) rate(name string, work float64, fn func()) {
	p.m.set(name, work/p.timed(name, fn))
}

// nsPer reports fn's time per one of its n inner operations.
func (p *probes) nsPer(name string, n int, fn func()) {
	p.m.set(name, p.timed(name, fn)*1e9/float64(n))
}

// runProbes calls each layer's exported functions on inputs cut from an
// R-MAT graph of the run's seed and reports one metric per probe: the
// median of size.reps repetitions, allocations by testing.AllocsPerRun.
func runProbes(m *metrics, tr *tracer, cfg config, tmp string) error {
	p := &probes{m: m, tr: tr, reps: cfg.size.reps, seed: cfg.seed, tmp: tmp}
	gen := rmat.New(cfg.size.probeScale, cfg.seed)
	p.n = gen.NumVertices()
	p.rate("rmat.generate_edges_per_s", float64(gen.NumEdges()), func() { p.edges = gen.Generate() })
	var err error
	if p.layout, err = partition.FixedLayout(p.n, probeParts, probeParts); err != nil {
		return err
	}
	p.graphAndPartition()
	p.gasAndAlgorithms()
	p.driveTyped()
	p.driveWire()
	p.storage()
	p.simAndObs()
	p.durable()
	p.service(cfg.size.probeScale)
	return p.err
}

func (p *probes) graphAndPartition() {
	format := graph.FormatFor(p.n, false)
	var buf []byte
	size := float64(len(p.edges) * format.EdgeSize())
	p.rate("graph.encode_edges_mb_per_s", size/mb, func() { buf = format.EncodeEdges(buf[:0], p.edges) })
	dst := make([]graph.Edge, 0, len(p.edges))
	p.rate("graph.decode_edges_mb_per_s", size/mb, func() { dst = format.DecodeEdges(dst[:0], buf) })
	p.rate("graph.view_undirected_edges_per_s", float64(len(p.edges)), func() { sink += len(graph.Undirected(p.edges)) })
	var bins [][]graph.Edge
	p.rate("partition.bin_edges_per_s", float64(len(p.edges)), func() { bins = p.layout.BinEdges(p.edges) })
	// The binned edges, encoded in chunks, feed the kernel probes.
	p.chunks = make([][][]byte, probeParts)
	per := probeChunk / format.EdgeSize()
	for part, es := range bins {
		for len(es) > 0 {
			k := min(per, len(es))
			p.chunks[part] = append(p.chunks[part], format.EncodeEdges(nil, es[:k]))
			es = es[k:]
			p.nchunk++
		}
	}
}

func (p *probes) gasAndAlgorithms() {
	// WCC's 5-byte vertex record is the one des-wcc moves every phase.
	codec := (&algorithms.WCC{}).VertexCodec()
	vs := make([]algorithms.WCCVertex, p.n)
	for i := range vs {
		vs[i] = algorithms.WCCVertex{Label: uint32(i), Active: i%2 == 0}
	}
	size := float64(len(vs) * codec.Bytes)
	var buf []byte
	p.rate("gas.encode_slice_mb_per_s", size/mb, func() { buf = codec.EncodeSlice(vs) })
	p.rate("gas.decode_slice_mb_per_s", size/mb, func() { sink += codec.DecodeSliceInto(vs, buf) })
	p.m.set("gas.codec_allocs_per_op", testing.AllocsPerRun(p.reps, func() {
		sink += codec.DecodeSliceInto(vs, codec.EncodeSlice(vs))
	}))

	// One PageRank gather fold over every edge's update, then Apply.
	pr := &algorithms.PageRank{}
	verts := make([]algorithms.PRVertex, p.n)
	acc := make([]float64, p.n)
	p.rate("algorithms.pr_gather_apply_updates_per_s", float64(len(p.edges)), func() {
		for i := range acc {
			acc[i] = pr.InitAccum()
		}
		for _, e := range p.edges {
			acc[e.Dst] = pr.Gather(acc[e.Dst], 0.5, &verts[e.Dst])
		}
		for i := range verts {
			pr.Apply(0, graph.VertexID(i), &verts[i], acc[i])
		}
	})
}

// prKernel returns the PageRank kernel over the probe layout with each
// partition's vertex slice initialised (degree 1 keeps ranks finite).
func prKernel(p *probes) (*drive.Kernel[algorithms.PRVertex, float32, float64], [][]algorithms.PRVertex) {
	k := drive.NewKernel[algorithms.PRVertex, float32, float64](&algorithms.PageRank{}, p.layout)
	verts := make([][]algorithms.PRVertex, probeParts)
	for part := range verts {
		verts[part] = make([]algorithms.PRVertex, p.layout.Size(part))
		for i := range verts[part] {
			verts[part][i] = algorithms.PRVertex{Rank: 1, Degree: 1}
		}
	}
	return k, verts
}

// driveTyped probes the native plane's data path: the typed scatter
// kernel, the two transports and the update codec the spill crosses.
func (p *probes) driveTyped() {
	k, verts := prKernel(p)
	scatter := func(sinkFn func(src, dst int, recs []drive.UpdRec[float32])) {
		for part, chunks := range p.chunks {
			for _, data := range chunks {
				var out drive.ScatterOut[float32]
				k.ScatterChunkTyped(0, part, verts[part], data, &out)
				for dst, recs := range out.Typed {
					if recs != nil && sinkFn != nil {
						sinkFn(part, dst, recs)
						out.Typed[dst] = nil
					}
				}
				k.ReleaseScatterOut(&out)
			}
		}
	}
	p.rate("drive.scatter_typed_edges_per_s", float64(len(p.edges)), func() { scatter(nil) })
	p.m.set("drive.scatter_typed_allocs_per_chunk", testing.AllocsPerRun(p.reps, func() { scatter(nil) })/float64(p.nchunk))

	// Put every scattered chunk into the transport, then drain each
	// destination source by source and read every record, as gather does.
	roundTrip := func(t drive.Transport[float32]) {
		scatter(func(src, dst int, recs []drive.UpdRec[float32]) { t.Put(src, dst, recs) })
		for dst := 0; dst < probeParts; dst++ {
			for src := 0; src < probeParts; src++ {
				for _, pc := range t.DrainFrom(dst, src) {
					recs := pc.Load()
					sink += len(recs)
					pc.Release(recs)
				}
			}
		}
	}
	// The scatter's own time and allocations are taken off, so the
	// figures are the transport's.
	scatterS := float64(len(p.edges)) / p.m.vals["drive.scatter_typed_edges_per_s"]
	scatterAllocs := p.m.vals["drive.scatter_typed_allocs_per_chunk"]
	mem := k.NewMemTransport()
	memS := p.timed("drive.mem_put_drain", func() { roundTrip(mem) })
	p.m.set("drive.mem_put_drain_updates_per_s", float64(len(p.edges))/max(memS-scatterS, 1e-9))
	p.m.set("drive.mem_put_drain_allocs_per_chunk", testing.AllocsPerRun(p.reps, func() { roundTrip(mem) })/float64(p.nchunk)-scatterAllocs)

	// Budget 0 spills every Put, so each chunk crosses the codec and the
	// file backend both ways.
	spillDir := filepath.Join(p.tmp, "probe-spill")
	backend, err := storage.NewFileBackend(spillDir)
	if err != nil {
		p.check(err)
		return
	}
	spill := k.NewSpillTransport(0, backend, func() error { return os.RemoveAll(spillDir) })
	spillS := p.timed("drive.spill_put_drain", func() { roundTrip(spill) })
	p.m.set("drive.spill_put_drain_mb_per_s", float64(len(p.edges)*k.UpdBytes)/mb/max(spillS-scatterS, 1e-9))
	p.m.set("drive.spill_put_drain_allocs_per_chunk", testing.AllocsPerRun(p.reps, func() { roundTrip(spill) })/float64(p.nchunk)-scatterAllocs)
	p.check(spill.Close())

	recs := make([]drive.UpdRec[float32], probeChunk/k.UpdBytes)
	data := k.AppendRecs(nil, recs)
	const chunks = 64
	p.rate("drive.decode_update_chunk_mb_per_s", float64(chunks*len(data))/mb, func() {
		for i := 0; i < chunks; i++ {
			recs = k.DecodeUpdateChunk(recs[:0], data)
		}
	})
}

// driveWire probes the DES plane's data path: the byte-level scatter
// kernel feeding drive.Wire, and the compute pool its chunks run on.
func (p *probes) driveWire() {
	k := drive.NewKernel[algorithms.WCCVertex, uint32, uint32](&algorithms.WCC{}, p.layout)
	verts := make([][]algorithms.WCCVertex, probeParts)
	for part := range verts {
		verts[part] = make([]algorithms.WCCVertex, p.layout.Size(part))
		for i := range verts[part] {
			verts[part][i] = algorithms.WCCVertex{Label: uint32(i), Active: true}
		}
	}
	wire := drive.NewWire(probeParts, drive.SpillLimit(probeChunk, k.UpdBytes), func(_ int, chunk []byte) { sink += len(chunk) })
	scatter := func() {
		for part, chunks := range p.chunks {
			for _, data := range chunks {
				var out drive.ScatterOut[uint32]
				k.ScatterChunk(0, part, verts[part], data, &out)
				for dst, b := range out.Updates {
					if b != nil {
						wire.Put(dst, b)
					}
				}
				k.ReleaseScatterOut(&out)
			}
		}
		wire.FlushPartials()
	}
	p.rate("drive.scatter_wire_edges_per_s", float64(len(p.edges)), scatter)
	p.m.set("drive.scatter_wire_allocs_per_chunk", testing.AllocsPerRun(p.reps, scatter)/float64(p.nchunk))

	const tasks = 4096 // the pool's queue depth, so Submit never blocks
	pool := drive.NewPool(2)
	defer pool.Close()
	p.nsPer("drive.pool_task_ns", tasks, func() {
		var prev *drive.Task
		for i := 0; i < tasks; i++ {
			t := &drive.Task{Prev: prev, Fn: func() { sink++ }}
			pool.Submit(t)
			prev = t
		}
		prev.Wait()
	})
}

// storage probes both backends with the workloads' 64 KiB chunks, and
// the Store's chunk bookkeeping over the in-memory one. The file figures
// are this sandbox's page cache, not a device.
func (p *probes) storage() {
	const chunks = 256
	data := make([]byte, probeChunk)
	size := float64(chunks*probeChunk) / mb
	backend := func(name string, b storage.Backend) {
		p.rate("storage."+name+"_write_mb_per_s", size, func() {
			p.check(b.Truncate("s"))
			for i := 0; i < chunks; i++ {
				_, err := b.Write("s", data)
				p.check(err)
			}
		})
		p.rate("storage."+name+"_read_mb_per_s", size, func() {
			for i := 0; i < chunks; i++ {
				d, err := b.Read("s", int64(i)*probeChunk, probeChunk)
				p.check(err)
				sink += len(d)
			}
		})
		p.check(b.Close())
	}
	dir := filepath.Join(p.tmp, "probe-files")
	fb, err := storage.NewFileBackend(dir)
	if err != nil {
		p.check(err)
		return
	}
	backend("file", fb)
	p.check(os.RemoveAll(dir))
	backend("mem", storage.NewMemBackend())

	p.rate("storage.store_chunks_per_s", chunks, func() {
		st := storage.NewStore(0, 1, storage.NewMemBackend())
		for i := 0; i < chunks; i++ {
			p.check(st.PutChunk(storage.UpdateSet, 0, data))
		}
		for {
			d, ok, err := st.NextChunk(storage.UpdateSet, 0)
			p.check(err)
			if !ok {
				break
			}
			sink += len(d)
		}
	})
}

func (p *probes) simAndObs() {
	// Two processes hand a message back and forth: each hand-off is a
	// mailbox put, a scheduler event and a goroutine switch.
	const handoffs = 20000
	p.rate("sim.mailbox_handoffs_per_s", handoffs, func() {
		env := sim.NewEnv(p.seed)
		a, b := sim.NewMailbox(env, "a"), sim.NewMailbox(env, "b")
		env.Spawn("ping", func(pr *sim.Proc) {
			for i := 0; i < handoffs/2; i++ {
				b.Put(i)
				a.Recv(pr)
			}
		})
		env.Spawn("pong", func(pr *sim.Proc) {
			for i := 0; i < handoffs/2; i++ {
				b.Recv(pr)
				a.Put(i)
			}
		})
		env.Run()
		env.Close()
	})
	// 64 self-rescheduling timers keep the event heap as deep as a
	// 4-machine run's.
	const events, timers = 200000, 64
	p.rate("sim.timer_events_per_s", events, func() {
		env := sim.NewEnv(p.seed)
		left := events
		var tick func()
		tick = func() {
			if left--; left >= timers {
				env.After(sim.Time(1+left%7), tick)
			}
		}
		for i := 0; i < timers; i++ {
			env.After(sim.Time(i), tick)
		}
		env.Run()
	})

	const records = 1 << 16
	ring := obs.NewRing[drive.Span](records)
	p.nsPer("obs.ring_record_ns", records, func() {
		for i := 0; i < records; i++ {
			ring.Record(drive.Span{Iter: i})
		}
	})
}

// durable probes the journal (buffered append, append with fsync,
// replay) and the disk result store. The fsync figures are this
// sandbox's disk.
func (p *probes) durable() {
	const appends, syncs = 4096, 16
	payload := make([]byte, 256) // about one job-transition record
	dir := filepath.Join(p.tmp, "probe-journal")
	// An hour between background fsyncs: the probe decides when to sync.
	j, _, err := durable.OpenJournal(dir, time.Hour, nil)
	if err != nil {
		p.check(err)
		return
	}
	p.nsPer("durable.journal_append_ns", appends, func() {
		for i := 0; i < appends; i++ {
			p.check(j.Append(payload))
		}
	})
	p.nsPer("durable.journal_append_sync_ns", syncs, func() {
		for i := 0; i < syncs; i++ {
			p.check(j.Append(payload))
			p.check(j.Sync())
		}
	})
	p.check(j.Close())
	records := (appends + syncs) * p.reps
	p.rate("durable.journal_replay_records_per_s", float64(records), func() {
		n := 0
		j, _, err := durable.OpenJournal(dir, time.Hour, func([]byte) error { n++; return nil })
		if err != nil {
			p.check(err)
			return
		}
		if n != records {
			p.check(fmt.Errorf("journal replay gave %d of %d records", n, records))
		}
		p.check(j.Close())
	})

	const blobs = 16
	store, err := durable.OpenResultStore(filepath.Join(p.tmp, "probe-results"), 0)
	if err != nil {
		p.check(err)
		return
	}
	blob := make([]byte, 1<<10) // a result summary plus report is about 1 KiB
	rep := 0
	key := func(i int) string { return fmt.Sprintf("%016x", rep<<8|i) }
	p.nsPer("durable.resultstore_put_ns", blobs, func() {
		rep++ // fresh keys: Put of a stored key is a no-op
		for i := 0; i < blobs; i++ {
			p.check(store.Put(key(i), blob))
		}
	})
	p.nsPer("durable.resultstore_get_ns", blobs, func() {
		for i := 0; i < blobs; i++ {
			d, _ := store.Get(key(i))
			sink += len(d)
		}
	})
}

// service probes the catalog (register through the handler, first
// undirected view) and the GET /v1/jobs/{id} handler on an in-memory
// service of its own.
func (p *probes) service(scale int) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Shutdown(context.Background())
	h := svc.Handler()
	do := func(method, path string, body any) *httptest.ResponseRecorder {
		var rd bytes.Buffer
		if body != nil {
			json.NewEncoder(&rd).Encode(body)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, &rd))
		return w
	}
	// Each repetition registers its own graph: a name registers once.
	reg := 0
	p.m.set("service.catalog_register_s", p.timed("service.catalog_register", func() {
		reg++
		spec := service.GraphSpec{Name: fmt.Sprintf("probe%d", reg), Type: "rmat", Scale: scale, Weighted: true, Seed: p.seed}
		if w := do(http.MethodPost, "/v1/graphs", spec); w.Code != http.StatusCreated {
			p.check(fmt.Errorf("register probe graph: %s", w.Body.String()))
		}
	}))
	// The first view of a graph converts, later ones hit the cache: one
	// graph per repetition again.
	view := 0
	p.m.set("service.catalog_view_s", p.timed("service.catalog_view", func() {
		view++
		if g, ok := svc.Catalog().Get(fmt.Sprintf("probe%d", view)); ok {
			sink += len(g.View(chaos.ViewUndirected))
		}
	}))

	job, err := svc.Submit("probe1", "BFS", chaos.Options{Engine: chaos.EngineNative, ChunkBytes: probeChunk})
	if err != nil {
		p.check(err)
		return
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		v, _ := svc.Scheduler().Get(job.ID)
		if v.State == service.JobDone {
			break
		}
		if v.State != service.JobQueued && v.State != service.JobRunning || time.Now().After(deadline) {
			p.check(fmt.Errorf("probe job ended %s: %s", v.State, v.Error))
			return
		}
	}
	const gets = 512
	p.nsPer("service.get_job_ns", gets, func() {
		for i := 0; i < gets; i++ {
			sink += do(http.MethodGet, "/v1/jobs/"+job.ID, nil).Body.Len()
		}
	})
}
