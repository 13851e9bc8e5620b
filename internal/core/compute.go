package core

import (
	"fmt"

	"chaos/internal/core/drive"
	"chaos/internal/metrics"
	"chaos/internal/sim"
	"chaos/internal/storage"
)

// degreeDelta carries one machine's out-degree counts for a partition to
// that partition's master during pre-processing.
type degreeDelta struct {
	part   int
	counts []uint32
	from   int
}

// machine is one computation engine plus the master-side steal state shared
// with its arbiter process. All fields are confined to simulation context.
type machine[V, U, A any] struct {
	id    int
	eng   *engine[V, U, A]
	inbox *sim.Mailbox
	stats *metrics.MachineStats

	// Master-side steal state, shared with the arbiter and reset at the
	// start of every phase.
	workers  map[int]int
	stealers map[int][]int
	closed   map[int]bool

	// pendingWrites counts unacknowledged write-class requests.
	pendingWrites int

	// wire is this machine's side of the update-transport seam
	// (internal/core/drive): it buffers typed update records per
	// destination partition, in slabs of the run's record arena, and
	// hands chunks of max(ChunkBytes/UpdBytes, 1) records to
	// writeUpdateChunk as they fill (§5.1). The records are never
	// encoded: every modeled device and link charges a chunk's records ×
	// UpdBytes.
	wire *drive.Wire[drive.UpdRec[U]]

	// combBuf stands before the wire when the Pregel-style combiner is
	// active (nil otherwise). Each sorted chunk it drains leaves through
	// wire.PutChunk as a chunk of its own, whatever its size: the arena
	// slab itself, held and returned like any Wire chunk.
	combBuf *drive.CombineBuf[V, U, A]

	// edgeWire cuts the rewritten next-generation edge records of each
	// partition into chunks under the §6.1 extended model (nil without a
	// rewriter).
	edgeWire *drive.Wire[byte]

	// Gather-steal accumulator hand-off state.
	stolenAccums    map[int][]A
	requestedAccums map[int]bool

	// Pre-processing degree exchange: folded out-degrees per partition.
	degAcc [][]uint32
	degGot int

	// Central-directory continuations by request tag.
	dirTag     uint64
	dirPending map[uint64]func(dirResp)

	// Flight-recorder tallies (trace.go): monotone counters snapshotted
	// by markSpan so emitSpan reports per-span deltas. Plain Go state,
	// never simulation state.
	trChunks                 int
	trBytesIn, trBytesOut    int64
	trStealsAcc, trStealsRej int
}

func newMachine[V, U, A any](eng *engine[V, U, A], id int) *machine[V, U, A] {
	m := &machine[V, U, A]{
		id:              id,
		eng:             eng,
		inbox:           sim.NewMailbox(eng.env, fmt.Sprintf("compute%d", id)),
		stats:           &eng.run.Machines[id],
		workers:         make(map[int]int),
		stealers:        make(map[int][]int),
		closed:          make(map[int]bool),
		stolenAccums:    make(map[int][]A),
		requestedAccums: make(map[int]bool),
		degAcc:          make([][]uint32, eng.layout.NumPartitions),
		dirPending:      make(map[uint64]func(dirResp)),
	}
	m.wire = drive.NewWire(eng.layout.NumPartitions, max(eng.cfg.ChunkBytes/eng.kern.UpdBytes, 1), m.writeUpdateChunk).
		DrawFrom(eng.kern.GrabRecs, eng.kern.ReleaseRecs)
	if eng.kern.Rewriter != nil {
		limit := drive.SpillLimit(eng.cfg.ChunkBytes, eng.kern.EdgeFmt.EdgeSize())
		m.edgeWire = drive.NewWire(eng.layout.NumPartitions, limit, func(part int, chunk []byte) {
			m.writeDataChunk(writeChunk{kind: storage.EdgeSetNext, part: part, length: len(chunk), payload: chunk})
		}).DrawFrom(eng.kern.GrabBuf, eng.kern.ReleaseBuf)
	}
	if eng.kern.Combiner != nil {
		m.combBuf = eng.kern.NewCombineBuf()
	}
	return m
}

func (m *machine[V, U, A]) send(dst int, bytes int64, mb *sim.Mailbox, msg any) {
	m.eng.clu.Send(m.id, dst, bytes, mb, msg)
}

func (m *machine[V, U, A]) cpu(p *sim.Proc, ops int) {
	if ops > 0 {
		m.eng.clu.Machines[m.id].CPU.Use(p, int64(ops))
	}
}

// handleAsync processes messages that may interleave with any blocking
// wait: write acknowledgements, directory responses, accumulator requests
// from masters, and pre-processing degree deltas. It reports whether the
// message was consumed.
func (m *machine[V, U, A]) handleAsync(msg any) bool {
	switch t := msg.(type) {
	case writeAck:
		m.pendingWrites--
		if m.pendingWrites < 0 {
			panic(fmt.Sprintf("core: machine %d: unexpected write ack", m.id))
		}
		return true
	case dirResp:
		cont, ok := m.dirPending[t.tag]
		if !ok {
			panic(fmt.Sprintf("core: machine %d: directory response with unknown tag %d", m.id, t.tag))
		}
		delete(m.dirPending, t.tag)
		cont(t)
		return true
	case getAccums:
		if accums, ok := m.stolenAccums[t.part]; ok {
			bytes := int64(len(accums))*int64(m.eng.prog.AccumBytes()) + controlMsgBytes
			m.send(t.from, bytes, t.replyTo, accumReply{part: t.part, from: m.id, accums: accums})
			delete(m.stolenAccums, t.part)
		} else {
			m.requestedAccums[t.part] = true
		}
		return true
	case degreeDelta:
		m.eng.kern.FoldDegrees(m.degAcc, t.part, t.counts)
		m.degGot++
		return true
	default:
		return false
	}
}

// recvExpect blocks until a message satisfying match arrives, servicing
// async traffic in between. Unexpected messages indicate a protocol bug
// and panic immediately.
func (m *machine[V, U, A]) recvExpect(p *sim.Proc, what string, match func(any) bool) any {
	for {
		msg := m.inbox.Recv(p)
		if m.handleAsync(msg) {
			continue
		}
		if match(msg) {
			return msg
		}
		panic(fmt.Sprintf("core: machine %d: got %T while expecting %s", m.id, msg, what))
	}
}

// drainWrites blocks until all write-class requests have been acknowledged.
func (m *machine[V, U, A]) drainWrites(p *sim.Proc) {
	for m.pendingWrites > 0 {
		if !m.handleAsync(m.inbox.Recv(p)) {
			panic(fmt.Sprintf("core: machine %d: unexpected message while draining writes", m.id))
		}
	}
}

// resetPhaseState clears the master-side steal bookkeeping at a phase
// boundary. All machines leave the previous barrier at the same instant
// and reset before any new proposal can cross the network.
func (m *machine[V, U, A]) resetPhaseState() {
	clear(m.workers)
	clear(m.stealers)
	clear(m.closed)
}

// main is the computation engine's top-level loop: pre-processing, then
// iterations of scatter / gather+apply with barriers after each phase (§4),
// convergence voting, optional checkpointing and failure recovery.
func (m *machine[V, U, A]) main(p *sim.Proc) {
	eng := m.eng
	m.preprocess(p)
	iter := 0
	for {
		m.scatterRun(p, iter)
		m.gatherRun(p, iter)
		if m.id == 0 {
			eng.decide(iter)
		}
		t0 := p.Now()
		eng.barrier.Wait(p)
		m.stats.Add(metrics.Barrier, p.Now()-t0)
		d := eng.decision
		if d.RollbackTo >= 0 {
			m.restore(p)
			eng.barrier.Wait(p)
			m.resetEdgeCursors()
			iter = d.RollbackTo + 1
			continue
		}
		if d.Done {
			eng.run.Iterations = iter + 1
			break
		}
		m.resetEdgeCursors()
		iter++
	}
	// Orderly shutdown of this machine's service processes.
	m.eng.storeIn[m.id].Put(shutdown{})
	m.eng.arbIn[m.id].Put(shutdown{})
	if m.id == 0 && eng.dirIn != nil {
		eng.dirIn.Put(shutdown{})
	}
}

// resetEdgeCursors rewinds the local store's edge consumption for the next
// iteration (the file-pointer reset of §7), or promotes the rewritten
// next-generation edge sets under the §6.1 extended model. Pure metadata.
func (m *machine[V, U, A]) resetEdgeCursors() {
	for part := 0; part < m.eng.layout.NumPartitions; part++ {
		if m.eng.kern.Rewriter != nil {
			m.eng.stores[m.id].PromoteEdges(part)
			continue
		}
		m.eng.stores[m.id].ResetConsumption(storage.EdgeSet, part)
	}
	if m.eng.dir != nil && m.id == 0 {
		for part := 0; part < m.eng.layout.NumPartitions; part++ {
			m.eng.dir.Reset(storage.EdgeSet, part)
		}
	}
}

// ---------------------------------------------------------------------------
// Pre-processing (§3): one pass over the input edge list, binning edges by
// source partition into chunks spread randomly over the storage engines,
// counting out-degrees if the program wants them, then initializing and
// writing the vertex sets.

func (m *machine[V, U, A]) preprocess(p *sim.Proc) {
	eng := m.eng
	mk := m.markSpan(p)
	myEdges := eng.inputEdges[m.id]
	edgeSize := eng.kern.EdgeFmt.EdgeSize()
	perChunk := max(eng.cfg.ChunkBytes/edgeSize, 1) // the DES chunk: whole records, at least one
	limit := perChunk * edgeSize
	needDeg := eng.prog.NeedsDegrees()
	var localDeg [][]uint32
	if needDeg {
		localDeg = make([][]uint32, eng.layout.NumPartitions)
	}
	bins := drive.NewWire(eng.layout.NumPartitions, limit, func(part int, chunk []byte) {
		m.writeDataChunk(writeChunk{kind: storage.EdgeSet, part: part, length: len(chunk), payload: chunk})
	}).DrawFrom(eng.kern.GrabBuf, eng.kern.ReleaseBuf)
	dev := eng.clu.Machines[m.id].Device

	for i := 0; i < len(myEdges); i += perChunk {
		batch := myEdges[i:min(i+perChunk, len(myEdges))]
		dev.Use(p, int64(len(batch)*edgeSize)) // read the raw input
		eng.run.BytesRead += int64(len(batch) * edgeSize)
		m.trBytesIn += int64(len(batch) * edgeSize)
		m.trChunks++
		m.cpu(p, len(batch))
		eng.kern.BinEdges(batch, bins, localDeg)
	}
	bins.FlushPartials()
	m.drainWrites(p)
	eng.barrier.Wait(p)

	if needDeg {
		// Every machine sends its per-partition counts to the
		// partition master; masters fold them.
		for part := 0; part < eng.layout.NumPartitions; part++ {
			master := eng.layout.Master(part)
			counts := localDeg[part]
			bytes := int64(4*len(counts)) + controlMsgBytes
			m.send(master, bytes, eng.machines[master].inbox, degreeDelta{part: part, counts: counts, from: m.id})
		}
		expect := eng.layout.NumMachines * len(eng.layout.PartitionsOf(m.id))
		for m.degGot < expect {
			if !m.handleAsync(m.inbox.Recv(p)) {
				panic(fmt.Sprintf("core: machine %d: unexpected message during degree exchange", m.id))
			}
		}
		eng.barrier.Wait(p)
	}

	// Initialize vertex values and record them on storage.
	for _, part := range eng.layout.PartitionsOf(m.id) {
		m.writeVertices(part, eng.kern.InitVertices(part, m.degAcc[part]), false)
	}
	m.drainWrites(p)
	m.emitSpan(p, mk, -1, -1, drive.PhasePreprocess, false)
	eng.barrier.Wait(p)
	if m.id == 0 {
		eng.run.Preprocess = p.Now()
	}
}

// ---------------------------------------------------------------------------
// Chunk I/O helpers.

// writeDataChunk stores a chunk of edges or updates on a uniformly random
// storage engine (§6.3), or on the engine the central directory picks in
// directory mode, charging the link its modeled length. The write is
// asynchronous; drainWrites collects the ack.
func (m *machine[V, U, A]) writeDataChunk(w writeChunk) {
	eng := m.eng
	m.pendingWrites++
	m.trBytesOut += int64(w.length)
	w.from = m.id
	if eng.dir != nil {
		m.dirRequest(dirPlace, w.kind, w.part, func(r dirResp) {
			m.send(r.machine, int64(w.length)+controlMsgBytes, eng.storeIn[r.machine], w)
		})
		return
	}
	target := eng.env.Rand().Intn(eng.layout.NumMachines)
	m.send(target, int64(w.length)+controlMsgBytes, eng.storeIn[target], w)
}

// writeUpdateChunk stores one Wire chunk of partition tp's updates: the
// arena slab itself, which the storage engine holds, at records ×
// UpdBytes, and returns to the arena when it deletes the update set.
func (m *machine[V, U, A]) writeUpdateChunk(tp int, recs []drive.UpdRec[U]) {
	m.writeDataChunk(writeChunk{kind: storage.UpdateSet, part: tp, length: len(recs) * m.eng.kern.UpdBytes, payload: recs})
}

// dirRequest sends an asynchronous request to the central directory and
// registers a continuation for its response.
func (m *machine[V, U, A]) dirRequest(op dirOp, kind storage.SetKind, part int, cont func(dirResp)) {
	m.dirTag++
	tag := m.dirTag
	m.dirPending[tag] = cont
	m.send(0, controlMsgBytes, m.eng.dirIn, dirReq{op: op, kind: kind, part: part, from: m.id, tag: tag, replyTo: m.inbox})
}

// streamChunks drives the batched chunk protocol of §6.5 for one partition's
// edge or update set: keep a window of phi*k requests outstanding to
// uniformly random storage engines, process chunk replies as they arrive,
// and finish when every engine has reported empty. The reply identifies
// the chunk by (store, cursor index); its computation was dispatched to
// the worker pool when the stream was acquired, and the caller's onChunk
// merges the result at the deterministic delivery instant.
func (m *machine[V, U, A]) streamChunks(p *sim.Proc, kind storage.SetKind, part int, onChunk func(chunkReply)) {
	eng := m.eng
	nm := eng.layout.NumMachines
	outstanding := 0

	// issue sends one more request while a store may still hold a chunk;
	// onEmpty takes a store's "nothing left" reply.
	var issue func() bool
	var onEmpty func(from int)
	if eng.dir != nil {
		// Directory mode: each slot is a locate followed by a fetch.
		exhausted := false
		issue = func() bool {
			if exhausted {
				return false
			}
			outstanding++
			m.dirRequest(dirLocate, kind, part, func(r dirResp) {
				if !r.ok {
					exhausted = true
					outstanding--
					return
				}
				m.send(r.machine, controlMsgBytes, eng.storeIn[r.machine],
					chunkReq{kind: kind, part: part, from: m.id, replyTo: m.inbox})
			})
			return true
		}
		onEmpty = func(from int) {
			// The directory said the chunk was there; a race would be a
			// protocol bug.
			panic(fmt.Sprintf("core: machine %d: directory pointed at empty store %d", m.id, from))
		}
	} else {
		empty := make([]bool, nm)
		nEmpty := 0
		issue = func() bool {
			if nEmpty == nm {
				return false
			}
			t := eng.env.Rand().Intn(nm)
			for empty[t] {
				t = (t + 1) % nm
			}
			m.send(t, controlMsgBytes, eng.storeIn[t], chunkReq{kind: kind, part: part, from: m.id, replyTo: m.inbox})
			outstanding++
			return true
		}
		onEmpty = func(from int) {
			if !empty[from] {
				empty[from] = true
				nEmpty++
			}
		}
	}
	for outstanding < eng.window && issue() {
	}
	for outstanding > 0 {
		msg := m.inbox.Recv(p)
		if m.handleAsync(msg) {
			continue
		}
		r, ok := msg.(chunkReply)
		if !ok || r.kind != kind || r.part != part {
			panic(fmt.Sprintf("core: machine %d: got %T while streaming %v of partition %d", m.id, msg, kind, part))
		}
		outstanding--
		if r.empty {
			onEmpty(r.from)
		} else {
			onChunk(r)
		}
		for outstanding < eng.window && issue() {
		}
	}
}

// loadVertices reads a partition's vertex set into memory, pipelining chunk
// reads from their hashed homes (§6.4). The buffer comes from the
// engine's free list, and the caller gives it back with putVerts once no
// task reads it; the chunks overwrite every vertex.
func (m *machine[V, U, A]) loadVertices(p *sim.Proc, part int) []V {
	eng := m.eng
	size := eng.layout.Size(part)
	if size == 0 {
		return nil
	}
	var verts []V
	if n := len(eng.freeVerts); n > 0 {
		verts = eng.freeVerts[n-1][:size]
		eng.freeVerts[n-1] = nil
		eng.freeVerts = eng.freeVerts[:n-1]
	} else {
		verts = make([]V, size, eng.layout.PerPartition)
	}
	per := eng.kern.VerticesPerChunk()
	n := eng.vertexChunks(part)
	issued, done := 0, 0
	for done < n {
		for issued < n && issued-done < eng.window {
			home := storage.VertexChunkHome(part, issued, eng.layout.NumMachines)
			m.send(home, controlMsgBytes, eng.storeIn[home], vertexRead{part: part, idx: issued, from: m.id, replyTo: m.inbox})
			issued++
		}
		msg := m.inbox.Recv(p)
		if m.handleAsync(msg) {
			continue
		}
		r, ok := msg.(vertexReadReply)
		if !ok || r.part != part {
			panic(fmt.Sprintf("core: machine %d: got %T while loading vertices of partition %d", m.id, msg, part))
		}
		eng.kern.VCodec.DecodeSliceInto(verts[r.idx*per:], r.data)
		m.trBytesIn += int64(len(r.data))
		done++
	}
	return verts
}

// putVerts returns a vertex set loadVertices handed out.
func (eng *engine[V, U, A]) putVerts(verts []V) {
	if cap(verts) > 0 {
		eng.freeVerts = append(eng.freeVerts, verts)
	}
}

// writeVertices records a partition's vertex set back to storage,
// asynchronously, optionally also charging the checkpoint shadow copy and
// capturing its bytes (phase 1 of §6.6).
func (m *machine[V, U, A]) writeVertices(part int, verts []V, checkpoint bool) {
	eng := m.eng
	chunks := eng.kern.EncodeVertices(verts)
	for idx, data := range chunks {
		m.trBytesOut += int64(len(data))
		home := storage.VertexChunkHome(part, idx, eng.layout.NumMachines)
		m.pendingWrites++
		m.send(home, int64(len(data))+controlMsgBytes, eng.storeIn[home],
			vertexWrite{part: part, idx: idx, from: m.id, data: data})
		if eng.cfg.ReplicateVertices {
			rep := storage.VertexChunkReplica(part, idx, eng.layout.NumMachines)
			m.pendingWrites++
			m.send(rep, int64(len(data))+controlMsgBytes, eng.storeIn[rep],
				vertexWrite{part: part, idx: idx, from: m.id, data: data})
		}
		if checkpoint {
			m.pendingWrites++
			m.send(home, int64(len(data))+controlMsgBytes, eng.storeIn[home],
				ckptWrite{bytes: len(data), from: m.id, ackTo: m.inbox})
		}
	}
	if checkpoint {
		eng.dec.Stage(part, chunks)
	}
}

// restore rewrites this machine's partitions' vertex sets from the last
// committed checkpoint after a transient failure.
func (m *machine[V, U, A]) restore(p *sim.Proc) {
	eng := m.eng
	for _, part := range eng.layout.PartitionsOf(m.id) {
		for idx, data := range eng.dec.Checkpoint(part) {
			home := storage.VertexChunkHome(part, idx, eng.layout.NumMachines)
			m.pendingWrites++
			m.send(home, int64(len(data))+controlMsgBytes, eng.storeIn[home],
				vertexWrite{part: part, idx: idx, from: m.id, data: data})
		}
	}
	m.drainWrites(p)
}

// ---------------------------------------------------------------------------
// Scatter phase (§5.1).

func (m *machine[V, U, A]) scatterRun(p *sim.Proc, iter int) {
	eng := m.eng
	m.resetPhaseState()
	for _, part := range eng.layout.PartitionsOf(m.id) {
		m.workers[part]++
		t0 := p.Now()
		mk := m.markSpan(p)
		verts := m.loadVertices(p, part)
		m.scatterPartition(p, iter, part, verts)
		m.emitSpan(p, mk, iter, part, drive.PhaseScatter, false)
		m.stats.Add(metrics.GPMasterMe, p.Now()-t0)
	}
	m.stealSweep(p, scatterPhase, iter)
	m.flushAllUpdates()
	m.drainWrites(p)
	t0 := p.Now()
	eng.barrier.Wait(p)
	m.stats.Add(metrics.Barrier, p.Now()-t0)
}

// scatterPartition streams a partition's edges and emits updates. The
// per-chunk computation (decode, rewriter, Scatter, update encoding) was
// dispatched to the worker pool when the stream was acquired; here each
// delivered chunk's pure result is merged — in delivery order, before any
// simulated time is charged for it — into the machine's spill buffers.
// With a combiner, updates to the same destination merge inside the
// buffers (§11.1); with a rewriter, the surviving edges are written into
// the next-generation edge set (§6.1 extended model). verts, which
// loadVertices handed out, goes back through releaseScatterStream.
func (m *machine[V, U, A]) scatterPartition(p *sim.Proc, iter, part int, verts []V) {
	eng := m.eng
	w, built := m.acquireScatterStream(iter, part, verts)
	m.streamChunks(p, storage.EdgeSet, part, func(r chunkReply) {
		m.trChunks++
		m.trBytesIn += int64(r.length)
		sc := w.at(r.from, r.idx)
		if sc == nil {
			// Inline mode (and, defensively, any chunk predating the
			// stream's task set): the reply carries the bytes, run the
			// same kernel at the delivery instant.
			sc = &scatterChunk[U]{}
			eng.kern.ScatterChunkTyped(iter, part, verts, r.payload.([]byte), &sc.out)
		} else {
			sc.Wait()
		}
		m.mergeScatter(p, part, &sc.out)
	})
	eng.releaseScatterStream(part, verts, built)
}

// mergeScatter replays one chunk's pure scatter result against the
// machine's buffers at the chunk's simulated delivery time: CPU charges,
// buffer appends and chunk spills happen exactly as if the records had
// been processed inline.
func (m *machine[V, U, A]) mergeScatter(p *sim.Proc, part int, out *drive.ScatterOut[U]) {
	eng := m.eng
	m.cpu(p, out.N)
	if eng.kern.Rewriter != nil {
		m.edgeWire.Put(part, out.EdgesNext)
	}
	if m.combBuf != nil {
		m.combBuf.Add(out.Combined, m.wire.PutChunk)
	}
	for tp, recs := range out.Typed {
		if len(recs) > 0 {
			m.wire.Put(tp, recs)
		}
	}
	// Combining costs an extra hash-merge per emitted update; the
	// paper found this overhead outweighs the traffic reduction.
	m.cpu(p, 2*out.CombineOps)
	eng.kern.ReleaseScatterOut(out)
}

// flushAllUpdates writes out the partially filled update (and rewritten
// edge) buffers at the end of a scatter phase.
func (m *machine[V, U, A]) flushAllUpdates() {
	m.wire.FlushPartials()
	if m.combBuf != nil {
		m.combBuf.Flush(m.wire.PutChunk)
	}
	if m.edgeWire != nil {
		m.edgeWire.FlushPartials()
	}
}

// ---------------------------------------------------------------------------
// Gather + apply phase (§5.2, §5.3).

func (m *machine[V, U, A]) gatherRun(p *sim.Proc, iter int) {
	eng := m.eng
	m.resetPhaseState()
	for _, part := range eng.layout.PartitionsOf(m.id) {
		m.workers[part]++
		t0 := p.Now()
		mk := m.markSpan(p)
		verts := m.loadVertices(p, part)
		accums := eng.kern.ResetAccums(make([]A, len(verts)))
		m.gatherPartition(p, part, verts, accums)
		m.emitSpan(p, mk, iter, part, drive.PhaseGather, false)
		m.stats.Add(metrics.GPMasterMe, p.Now()-t0)
		mk = m.markSpan(p)
		m.applyPartition(p, iter, part, verts, accums)
		eng.putVerts(verts)
		m.emitSpan(p, mk, iter, part, drive.PhaseApply, false)
	}
	m.stealSweep(p, gatherPhase, iter)
	m.drainWrites(p)
	t0 := p.Now()
	eng.barrier.Wait(p)
	m.stats.Add(metrics.Barrier, p.Now()-t0)
}

// gatherPartition streams a partition's updates into accumulators. verts
// is the partition's vertex set, read-only during gather. Each delivered
// chunk is the slab its storage engine holds, folded as it is — no decode
// — into this machine's accumulators by a chained worker task: chained in
// the chunks' deterministic delivery order, so the accumulator fold
// sequence is identical for any worker count. The whole chain is awaited
// before the accumulators are read. Nobody writes a held slab, so master
// and stealers fold it concurrently.
func (m *machine[V, U, A]) gatherPartition(p *sim.Proc, part int, verts []V, accums []A) {
	eng := m.eng
	var tail *drive.Task
	m.streamChunks(p, storage.UpdateSet, part, func(r chunkReply) {
		m.trChunks++
		m.trBytesIn += int64(r.length)
		m.cpu(p, r.length/eng.kern.UpdBytes)
		recs := r.payload.([]drive.UpdRec[U])
		ft := &drive.Task{Prev: tail, Fn: func() { eng.kern.FoldUpdates(verts, accums, recs) }}
		eng.pool.Submit(ft)
		tail = ft
	})
	if tail != nil {
		tail.Wait()
	}
}

// applyPartition is the master-side wrap-up for one of its partitions:
// close the partition to new stealers, fetch and merge their accumulators,
// apply, write the vertex set back, and delete the update set.
func (m *machine[V, U, A]) applyPartition(p *sim.Proc, iter, part int, verts []V, accums []A) {
	eng := m.eng
	m.closed[part] = true
	stealers := m.stealers[part]
	for _, s := range stealers {
		m.send(s, controlMsgBytes, eng.machines[s].inbox, getAccums{part: part, from: m.id, replyTo: m.inbox})
	}
	for range stealers {
		t0 := p.Now()
		msg := m.recvExpect(p, fmt.Sprintf("accumulators for partition %d", part), func(msg any) bool {
			r, ok := msg.(accumReply)
			return ok && r.part == part
		})
		m.stats.Add(metrics.MergeWait, p.Now()-t0)
		t0 = p.Now()
		theirs := msg.(accumReply).accums.([]A)
		m.cpu(p, len(theirs))
		for i := range accums {
			accums[i] = eng.prog.Merge(accums[i], theirs[i])
		}
		m.stats.Add(metrics.Merge, p.Now()-t0)
	}

	t0 := p.Now()
	m.cpu(p, len(verts))
	eng.dec.Changed.Add(eng.kern.ApplyVertices(iter, part, verts, accums))
	m.writeVertices(part, verts, eng.dec.CheckpointDue(iter))
	// Delete the consumed update set everywhere (§6.1).
	for s := 0; s < eng.layout.NumMachines; s++ {
		m.pendingWrites++
		m.send(s, controlMsgBytes, eng.storeIn[s], deleteUpdates{part: part, from: m.id})
	}
	if eng.dir != nil {
		m.pendingWrites++
		m.dirRequest(dirDelete, storage.UpdateSet, part, func(dirResp) { m.pendingWrites-- })
	}
	m.stats.Add(metrics.GPMasterMe, p.Now()-t0)
}

// ---------------------------------------------------------------------------
// Work stealing (§5.3, §5.4).

// stealSweep repeatedly offers help to the masters of other partitions in
// random order until a full sweep finds no partition that needs it.
func (m *machine[V, U, A]) stealSweep(p *sim.Proc, ph phase, iter int) {
	eng := m.eng
	if eng.cfg.Alpha == 0 || eng.layout.NumMachines == 1 {
		return
	}
	var others []int
	for part := 0; part < eng.layout.NumPartitions; part++ {
		if eng.layout.Master(part) != m.id {
			others = append(others, part)
		}
	}
	mk := m.markSpan(p)
	defer m.emitSpan(p, mk, iter, -1, drive.PhaseSteal, false)
	for {
		helped := false
		rng := eng.env.Rand()
		rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
		for _, part := range others {
			if !m.propose(p, ph, part) {
				continue
			}
			helped = true
			if ph == scatterPhase {
				m.scatterSteal(p, iter, part)
			} else {
				m.gatherSteal(p, iter, part)
			}
		}
		if !helped {
			return
		}
	}
}

// propose sends a steal proposal to the partition's master and waits for
// the verdict.
func (m *machine[V, U, A]) propose(p *sim.Proc, ph phase, part int) bool {
	eng := m.eng
	master := eng.layout.Master(part)
	m.send(master, controlMsgBytes, eng.arbIn[master], stealPropose{ph: ph, part: part, from: m.id, replyTo: m.inbox})
	msg := m.recvExpect(p, fmt.Sprintf("steal response for partition %d", part), func(msg any) bool {
		r, ok := msg.(stealResp)
		return ok && r.part == part
	})
	if msg.(stealResp).accepted {
		m.trStealsAcc++
		return true
	}
	m.trStealsRej++
	return false
}

// scatterSteal processes part of another machine's partition during
// scatter: read the vertex set (the cost of stealing), then stream and
// scatter edges exactly as the master does.
func (m *machine[V, U, A]) scatterSteal(p *sim.Proc, iter, part int) {
	mk := m.markSpan(p)
	t0 := p.Now()
	verts := m.loadVertices(p, part)
	m.stats.Add(metrics.Copy, p.Now()-t0)
	t0 = p.Now()
	m.scatterPartition(p, iter, part, verts)
	m.stats.Add(metrics.GPMasterOther, p.Now()-t0)
	m.emitSpan(p, mk, iter, part, drive.PhaseScatter, true)
}

// gatherSteal processes part of another machine's partition during gather,
// keeping a private accumulator array that the master fetches when it has
// finished its own part (§5.3). Per the paper, the stealer waits for the
// master's request before doing anything else; the wait is very short
// because everyone drains the same chunk pool.
func (m *machine[V, U, A]) gatherSteal(p *sim.Proc, iter, part int) {
	eng := m.eng
	mk := m.markSpan(p)
	t0 := p.Now()
	verts := m.loadVertices(p, part)
	m.stats.Add(metrics.Copy, p.Now()-t0)
	t0 = p.Now()
	accums := eng.kern.ResetAccums(make([]A, len(verts)))
	m.gatherPartition(p, part, verts, accums)
	eng.putVerts(verts)
	m.stats.Add(metrics.GPMasterOther, p.Now()-t0)
	m.emitSpan(p, mk, iter, part, drive.PhaseGather, true)

	t0 = p.Now()
	if m.requestedAccums[part] {
		delete(m.requestedAccums, part)
		master := eng.layout.Master(part)
		bytes := int64(len(accums))*int64(eng.prog.AccumBytes()) + controlMsgBytes
		m.send(master, bytes, eng.machines[master].inbox, accumReply{part: part, from: m.id, accums: accums})
	} else {
		m.stolenAccums[part] = accums
		for {
			if _, pending := m.stolenAccums[part]; !pending {
				break
			}
			if !m.handleAsync(m.inbox.Recv(p)) {
				panic(fmt.Sprintf("core: machine %d: unexpected message while awaiting accumulator request", m.id))
			}
		}
	}
	m.stats.Add(metrics.MergeWait, p.Now()-t0)
}
