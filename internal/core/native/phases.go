package native

import (
	"sync"

	"chaos/internal/core/drive"
	"chaos/internal/graph"
)

// ---------------------------------------------------------------------------
// Pre-processing (§3): one pass over the input edge list, binning edges
// by source partition into chunks and counting out-degrees if the
// program wants them, then initializing the resident vertex sets. The
// pass's output is a drive.Bins, a pure function of the edges and the
// bin key, so a run over a source it has seen before borrows it from
// Config.Bins instead of binning again; only the vertex initialization
// is this run's own.

func (r *run[V, U, A]) preprocess(edges graph.Source) {
	t0 := r.elapsed()
	key := drive.BinKey{
		Machines:    r.nm,
		Partitions:  r.layout.NumPartitions,
		NumVertices: r.layout.NumVertices,
		ChunkBytes:  r.cfg.ChunkBytes,
		Format:      r.kern.EdgeFmt,
		Degrees:     r.prog.NeedsDegrees(),
	}
	bins, built := r.cfg.Bins.Lookup(edges, key, func() *drive.Bins { return r.binEdges(edges, key.Degrees) })
	// The §3 output counts as written whether this run built it or
	// borrowed it, so a report never depends on which runs came before.
	r.bytesWritten.Add(bins.Bytes)
	if r.cfg.Trace != nil {
		for _, s := range bins.Spans {
			if !built {
				// Borrowed: the build's tallies over this run's lookup.
				s.Start, s.Dur = int64(t0), int64(r.elapsed()-t0)
			}
			r.cfg.Trace(s)
		}
	}
	// The run's own edge generations start from the shared lists; the
	// rewriting extension replaces them with fresh ones (promoteEdges).
	copy(r.edges, bins.Chunks)

	// Initialize vertex values straight into the resident store. Init
	// may keep private program state (it runs on the simulation thread
	// under the DES driver), so this stays on one goroutine. No bytes
	// move — the store is the decoded values themselves — so nothing is
	// tallied here; vertex bytes only count where the codec runs
	// (checkpoints and their restore).
	for p := range r.verts {
		var deg []uint32
		if bins.Deg != nil {
			deg = bins.Deg[p]
		}
		r.verts[p] = r.kern.InitVertices(p, deg)
	}
}

// binEdges is the §3 pass itself. Machines bin their input slices
// concurrently; per-partition chunk lists are concatenated in machine
// order so the edge stream every later scatter sees is deterministic.
// It reads the run's kernel and geometry and writes none of its state.
func (r *run[V, U, A]) binEdges(edges graph.Source, needDeg bool) *drive.Bins {
	np := r.layout.NumPartitions
	perMachine := drive.SplitInput(edges.Len(), r.nm)
	edgeSize := r.kern.EdgeFmt.EdgeSize()
	limit := drive.SpillLimit(r.cfg.ChunkBytes, edgeSize)

	type binned struct {
		chunks [][][]byte // per partition
		deg    [][]uint32 // per partition, nil unless needDeg
	}
	bins := make([]binned, r.nm)
	spans := make([]drive.Span, r.nm)
	var wg sync.WaitGroup
	wg.Add(r.nm)
	for m := 0; m < r.nm; m++ {
		go func(m int) {
			defer wg.Done()
			t0 := r.elapsed()
			b := &bins[m]
			b.chunks = make([][][]byte, np)
			if needDeg {
				b.deg = make([][]uint32, np)
			}
			var nchunks int
			var binnedBytes int64
			wire := drive.NewWire(np, limit, func(p int, chunk []byte) {
				b.chunks[p] = append(b.chunks[p], chunk)
				nchunks++
				binnedBytes += int64(len(chunk))
			})
			lo, hi := perMachine[m][0], perMachine[m][1]
			edges.Range(lo, hi, graph.NewScratch(), func(batch []graph.Edge) { r.kern.BinEdges(batch, wire, b.deg) })
			wire.FlushPartials()
			spans[m] = drive.Span{
				Iter: -1, Machine: m, Part: -1, Phase: drive.PhasePreprocess,
				Start: int64(t0), Dur: int64(r.elapsed() - t0),
				Chunks:  nchunks,
				BytesIn: int64((hi - lo) * edgeSize), BytesOut: binnedBytes,
			}
		}(m)
	}
	wg.Wait()

	// Concatenate in machine order (the deterministic stream order) and
	// fold degrees.
	chunks := make([][][]byte, np)
	var degAcc [][]uint32
	if needDeg {
		degAcc = make([][]uint32, np)
	}
	for m := range bins {
		for p, list := range bins[m].chunks {
			chunks[p] = append(chunks[p], list...)
		}
		for p, deg := range bins[m].deg {
			r.kern.FoldDegrees(degAcc, p, deg)
		}
	}
	return drive.NewBins(chunks, degAcc, spans)
}

// storedBytes sums a chunk list's encoded lengths (flight-recorder
// tallies and the scatter steal criterion's D).
func storedBytes(chunks [][]byte) int64 {
	var n int64
	for _, c := range chunks {
		n += int64(len(c))
	}
	return n
}

// ---------------------------------------------------------------------------
// Scatter phase (§5.1): stream the partition's edge chunks, run the
// shared typed scatter kernel on the compute pool over the resident
// vertex values, and merge each chunk's result — in the deterministic
// chunk order — into the update transport: record slices move into the
// per-(src, dst) buckets by pointer, and the transport writes the ones
// past its budget, if it has one, to disk as they are.

func (r *run[V, U, A]) scatterPartition(iter, mach, p int, stolen bool) {
	kern := r.kern
	t0 := r.elapsed()
	var bytesIn, bytesOut int64
	verts := r.verts[p]
	chunks := r.edges[p]

	// Each chunk's pure kernel runs on the shared pool and its result is
	// merged in chunk order — the order the (source partition, chunk,
	// record) fold order rests on. Dispatch runs a bounded window ahead of
	// the merge (Pool.Window), not the whole partition: a kernel's output
	// is memory no transport budget has seen until its merge Puts it, so
	// what is in flight is a few chunks' worth whatever the partition's
	// size, and a budgeted run's slabs cycle inside one iteration.
	type scatterChunk struct {
		drive.Task
		out drive.ScatterOut[U]
	}
	tasks := make([]*scatterChunk, len(chunks))
	submit := func(i int) {
		sc := &scatterChunk{}
		data := chunks[i]
		sc.Fn = func() { kern.ScatterChunkTyped(iter, p, verts, data, &sc.out) }
		tasks[i] = sc
		r.pool.Submit(&sc.Task)
		r.bytesRead.Add(int64(len(data)))
		bytesIn += int64(len(data))
	}
	window := r.pool.Window()
	for i := 0; i < min(window, len(chunks)); i++ {
		submit(i)
	}

	// The rewritten edges are cut into chunks exactly as the DES driver
	// cuts them.
	var nextWire *drive.Wire[byte]
	if kern.Rewriter != nil {
		edgeLimit := drive.SpillLimit(r.cfg.ChunkBytes, kern.EdgeFmt.EdgeSize())
		nextWire = drive.NewWire(1, edgeLimit, func(_ int, chunk []byte) { r.putEdgeNextChunk(p, chunk) })
	}
	mergeT0 := r.elapsed()
	var spillBytes int64
	var spillChunks int
	// put hands one destination's records to the transport, which owns
	// them from here on.
	put := func(tp int, recs []drive.UpdRec[U]) {
		sz := int64(len(recs)) * int64(kern.UpdBytes)
		bytesOut += sz
		r.bytesWritten.Add(sz)
		sb, sn := r.tr.Put(p, tp, recs)
		spillBytes += sb
		spillChunks += sn
	}
	next := func(edges []byte) {
		bytesOut += int64(len(edges))
		nextWire.Put(0, edges)
	}
	comb := r.combined[p]

	for i, sc := range tasks {
		sc.Wait()
		tasks[i] = nil
		kern.MergeScatter(&sc.out, comb, next, put)
		if i+window < len(chunks) {
			submit(i + window)
		}
	}

	// Flush the remaining combined updates at phase end.
	if comb != nil {
		comb.Flush(put)
	}
	if kern.Rewriter != nil {
		nextWire.FlushPartials()
	}
	if spillChunks > 0 && r.cfg.Trace != nil {
		r.cfg.Trace(drive.Span{
			Iter: iter, Machine: mach, Part: p, Phase: drive.PhaseSpill, Stolen: stolen,
			Start: int64(mergeT0), Dur: int64(r.elapsed() - mergeT0),
			Chunks: spillChunks, BytesOut: spillBytes,
		})
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace(drive.Span{
			Iter: iter, Machine: mach, Part: p, Phase: drive.PhaseScatter, Stolen: stolen,
			Start: int64(t0), Dur: int64(r.elapsed() - t0),
			Chunks: len(chunks), BytesIn: bytesIn, BytesOut: bytesOut,
		})
	}
}

func (r *run[V, U, A]) putEdgeNextChunk(p int, data []byte) {
	r.edgesNext[p] = append(r.edgesNext[p], data)
	r.bytesWritten.Add(int64(len(data)))
}

// ---------------------------------------------------------------------------
// Gather + apply phase (§5.2, §5.3): stream the partition's update
// chunks in (source partition, chunk) order — the deterministic fold
// order — decoding and folding each source's chunks as soon as that
// source's scatter completes, then apply to the resident vertex set.

func (r *run[V, U, A]) gatherPartition(iter, mach, p int, stolen bool) {
	t0 := r.elapsed()
	var bytesIn int64
	var nchunks int
	verts := r.verts[p]
	accums := r.kern.ResetAccums(r.accums[p])

	// Stream the transport's chunks for this partition source by source:
	// wait for each source's scatter-completion signal, drain its bucket
	// (the streaming edge of the pipeline — in the pinned (source
	// partition, chunk) order, sources ascending), and dispatch each
	// chunk's Load to the pool (a slice hand-back for resident chunks, a
	// file read straight into an arena slab for spilled ones), with the
	// fold into this partition's accumulators chained behind it in that
	// same order — the DES driver's exact gather pattern, minus the
	// global barrier. Folds are
	// the bulk of gather compute, so running them as pool tasks keeps
	// native jobs inside the scheduler's shared compute budget instead
	// of doing the heavy lifting on unbudgeted machine goroutines. The
	// channel waits are on this machine goroutine, never on pool
	// workers, so the pool cannot deadlock on them. Loads need no
	// window of their own: each fold is queued right behind its Load and
	// holds its worker until it has run, so the pool's FIFO pull keeps at
	// most a pool's width of loaded chunks waiting for their fold.
	type gatherChunk struct {
		drive.Task
		recs []drive.UpdRec[U]
	}
	var tail *drive.Task
	for src := 0; src < r.layout.NumPartitions; src++ {
		<-r.scatterDone[src]
		pending := r.tr.DrainFrom(p, src)
		for i := range pending {
			pc := &pending[i]
			gc := &gatherChunk{}
			gc.Fn = func() { gc.recs = pc.Load() }
			r.pool.Submit(&gc.Task)
			r.bytesRead.Add(pc.Bytes)
			nchunks++
			bytesIn += pc.Bytes
			ft := &drive.Task{Prev: tail, Fn: func() {
				gc.Wait() // load complete
				r.kern.FoldUpdates(verts, accums, gc.recs)
				pc.Release(gc.recs)
				gc.recs = nil
			}}
			r.pool.Submit(ft)
			tail = ft
		}
	}
	if tail != nil {
		tail.Wait()
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace(drive.Span{
			Iter: iter, Machine: mach, Part: p, Phase: drive.PhaseGather, Stolen: stolen,
			Start: int64(t0), Dur: int64(r.elapsed() - t0),
			Chunks: nchunks, BytesIn: bytesIn,
		})
	}
	applyT0 := r.elapsed()

	// Apply (serialized across partitions; see applyMu). The source loop
	// above waited on all NumPartitions scatterDone channels, so Apply —
	// which mutates the resident values scatters read — still runs
	// strictly after every scatter of this iteration, pipelined or not.
	r.applyMu.Lock()
	changed := r.kern.ApplyVertices(iter, p, verts, accums)
	r.applyMu.Unlock()
	r.dec.Changed.Add(changed)

	// Stage the checkpoint shadow copy (phase 1 of §6.6) — the one
	// recurring boundary vertex bytes still cross under the resident
	// store.
	var stored int64
	if r.dec.CheckpointDue(iter) {
		chunks := r.kern.EncodeVertices(verts)
		stored = storedBytes(chunks)
		r.bytesWritten.Add(stored)
		r.ckptBytes.Add(stored)
		r.dec.Stage(p, chunks)
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace(drive.Span{
			Iter: iter, Machine: mach, Part: p, Phase: drive.PhaseApply, Stolen: stolen,
			Start: int64(applyT0), Dur: int64(r.elapsed() - applyT0),
			BytesOut: stored,
		})
	}
	// The consumed update set was deleted by the drains above (§6.1):
	// this goroutine owns column p of the transport's buckets from each
	// source's completion signal on, and the last released spilled chunk
	// truncates each bucket's spill stream.
}
