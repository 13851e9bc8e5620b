// Package drive is the driver-neutral toolkit of the Chaos data plane.
//
// The Chaos contribution is a protocol — streaming partitions, randomized
// chunk placement, batched storage access, randomized work stealing — not
// the testbed it runs on (see DESIGN.md, "Two planes, one protocol").
// This package holds the pieces of that protocol that are pure functions
// of graph data and configuration, so more than one driver can execute
// them:
//
//   - internal/core runs the protocol under the deterministic
//     discrete-event simulation (the evaluation plane: virtual time,
//     modeled devices, paper-facing figures);
//   - internal/core/native runs the same protocol as goroutine groups
//     moving real chunks through memory with no virtual-time charging
//     (the execution plane: host wall-clock is the only clock).
//
// Everything here is side-effect-free with respect to any driver's
// scheduler state: kernels never touch a clock, an RNG or a mailbox.
// That property is what lets the DES driver offload them to worker
// goroutines while staying bit-reproducible (invariants in
// internal/core/parallel.go), and what lets the native driver run them
// with plain goroutines.
package drive

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/partition"
)

// UpdRec is one decoded update record: gas.UpdRec, under the name both
// drivers and the benchmark know it by.
type UpdRec[U any] = gas.UpdRec[U]

// ScatterOut is the pure result of scattering one edge chunk: everything
// a driver needs to replay the chunk's side effects (buffer appends,
// spills, CPU charges) without touching a single record itself.
type ScatterOut[U any] struct {
	N int // edge records scattered
	// Typed is ScatterChunkTyped's output: per-destination-partition
	// arena slabs, each record's Off relative to the slot's partition,
	// in emit order. MergeScatter hands them to the driver's ship, or to
	// the combiner buffer, which merges them and leaves them in place.
	Typed [][]UpdRec[U]
	// Updates is ScatterChunk's output (updcodec.go), the same records
	// encoded: one buffer per destination partition, Typed already
	// released.
	Updates [][]byte
	// EdgesNext holds the chunk's records the §6.1 rewriter kept, as
	// the chunk held them.
	EdgesNext []byte
}

// Kernel bundles the driver-independent data plane of one run: record
// formats, codecs, the per-chunk scatter/gather computations, the run's
// record arena and the scratch-buffer pools they draw from. A Kernel is
// shared freely between goroutines; arena and pools are concurrency-safe
// and the kernels are pure.
type Kernel[V, U, A any] struct {
	// Params is the run's clock-free configuration (policy.go reads it;
	// zero under NewKernel, filled by Plan).
	Params
	Prog    gas.Program[V, U, A]
	Layout  *partition.Layout
	EdgeFmt graph.Format
	// IDBytes is the update ID field width (4 or 8 bytes, §8; the field
	// carries UpdRec.Off); UpdBytes = IDBytes + UpdCodec.Bytes is the
	// full encoded update record.
	IDBytes  int
	UpdBytes int
	VBytes   int
	// Cached codecs: Program codec accessors construct fresh closures on
	// every call, which the per-chunk hot paths cannot afford.
	UpdCodec gas.Codec[U]
	VCodec   gas.Codec[V]
	// Combiner/Rewriter are the resolved optional extensions (nil when
	// disabled); Plan asserts them and reports configuration errors.
	Combiner gas.Combiner[U]
	Rewriter gas.EdgeRewriter[V]
	// The program's batch forms, nil when it has none: the kernels then
	// call Scatter and Gather record by record. batchScatter is bound to
	// the records of a compact edge format, and nil for the others.
	batchScatter blockScatter[V, U]
	batchGather  gas.BatchGatherer[V, U, A]

	arena recArena[U]
	hints slabHints
	// The pools are allocated apart from the Kernel. The runtime keeps
	// every sync.Pool that was ever used on a list of its own until two
	// garbage collections after the pool's last use; a pool embedded here
	// would keep the whole Kernel, and with it the arena's slabs,
	// reachable that long after the run — and a run that allocates little
	// sees few collections.
	bufPool, partsPool, recPartsPool, blockPool *sync.Pool
}

// DefaultRetainBytes bounds the capacity of byte buffers returned to the
// pools (ReleaseBuf): anything larger is dropped for the garbage
// collector, so one giant iteration cannot pin its high-water mark for
// the rest of the run. Record slabs follow the arena's trim rule instead
// (Decider.Decide).
const DefaultRetainBytes = 8 << 20

// NewKernel derives the record geometry for prog over layout. weighted
// edge format selection and ID width follow §8: 4-byte destinations below
// 2^32 vertices, 8-byte above.
func NewKernel[V, U, A any](prog gas.Program[V, U, A], layout *partition.Layout) *Kernel[V, U, A] {
	k := &Kernel[V, U, A]{
		Prog:    prog,
		Layout:  layout,
		EdgeFmt: graph.FormatFor(layout.NumVertices, prog.Weighted()),
		hints:   slabHints{rows: make([]atomic.Pointer[hintRow], layout.NumPartitions)},
		bufPool: new(sync.Pool), partsPool: new(sync.Pool), recPartsPool: new(sync.Pool), blockPool: new(sync.Pool),
	}
	switch k.EdgeFmt {
	case graph.Format{Compact: true}:
		k.batchScatter = bindScatter[V, U, graph.CompactEdge](prog)
	case graph.Format{Compact: true, Weighted: true}:
		k.batchScatter = bindScatter[V, U, graph.CompactWeightedEdge](prog)
	}
	k.batchGather, _ = any(prog).(gas.BatchGatherer[V, U, A])
	if layout.NumVertices < 1<<32 {
		k.IDBytes = 4
	} else {
		k.IDBytes = 8
	}
	k.UpdCodec = prog.UpdateCodec()
	k.VCodec = prog.VertexCodec()
	k.UpdBytes = k.IDBytes + k.UpdCodec.Bytes
	k.VBytes = k.VCodec.Bytes
	return k
}

// locator is partition.Layout.Of over constants hoisted out of the
// layout, for the two per-record loops (ScatterChunkTyped's emit loop,
// BinEdges). It restates Of here because the compiler inlines a call
// inside an instantiated generic body only when the instantiating package
// imports the callee's package, and the packages that instantiate a
// Kernel need not import partition; TestLocatorMatchesLayout holds the
// two to the same answers.
type locator struct {
	recip, per, last uint64
}

func newLocator(l *partition.Layout) locator {
	return locator{recip: l.Reciprocal(), per: l.PerPartition, last: uint64(l.NumPartitions - 1)}
}

// of returns the partition owning v, and its first vertex.
func (c locator) of(v graph.VertexID) (p int, lo uint64) {
	var q uint64
	if c.recip != 0 && uint64(v) < 1<<32 {
		q, _ = bits.Mul64(c.recip, uint64(v))
	} else {
		q = uint64(v) / c.per
	}
	q = min(q, c.last)
	return int(q), q * c.per
}

// blockScatter is a program's gas.BatchScatterer over one block of an
// edge chunk's compact records, which it reads where they lie.
type blockScatter[V, U any] func(iter int, block []byte, lo graph.VertexID, verts []V, dsts []graph.VertexID, vals []U) int

// bindScatter returns prog's batch form over E records as a
// blockScatter, or nil when prog has none.
func bindScatter[V, U any, E graph.CompactRecord](prog any) blockScatter[V, U] {
	b, ok := prog.(gas.BatchScatterer[V, U, E])
	if !ok {
		return nil
	}
	return func(iter int, block []byte, lo graph.VertexID, verts []V, dsts []graph.VertexID, vals []U) int {
		return b.ScatterBatch(iter, edgeRecords[E](block), lo, verts, dsts, vals)
	}
}

// edgeBlock is how many edges the scatter kernel hands to the program,
// or decodes, at a time: a program with a batch form is called once per
// block instead of once per edge, and graph.Format.DecodeEdges examines
// the format once per block instead of twice per edge.
const edgeBlock = 256

// scatterBlock is the scatter kernel's scratch for one chunk: a decoded
// edge block, when the chunk is not read in place, and the (destination,
// payload) pairs the program emitted for it. It is pooled, not a local:
// a batch program receives the slices through an interface, and an array
// handed to one moves to the heap.
type scatterBlock[U any] struct {
	edges [edgeBlock]graph.Edge
	dsts  [edgeBlock]graph.VertexID
	vals  [edgeBlock]U
}

// ScatterChunkTyped is the pure scatter computation on one edge chunk —
// the tree's one edge loop: a block at a time, hand the chunk's compact
// records to the program's batch form where they lie (when it has one,
// no rewriter needs the edges one by one and readsInPlace admits the
// chunk), or else decode them, consult the rewriter and apply Scatter
// edge by edge; then group the emitted updates per destination
// partition as typed records in arena slabs, each record's Off its
// destination's index inside that partition, whether or not the run
// combines (MergeScatter). Both drivers run it and neither encodes the
// records: the DES charges records × UpdBytes for them, and a spilling
// transport writes the slabs as they are. Each slab starts at the size
// this (part, destination) pair is known to produce (slabHints) and
// grows through the arena when a chunk produces more. It may run on any
// goroutine and must not touch driver state; verts is read-only and
// stable for the whole phase.
func (k *Kernel[V, U, A]) ScatterChunkTyped(iter, part int, verts []V, data []byte, out *ScatterOut[U]) {
	layout := k.Layout
	loc := newLocator(layout)
	lo, _ := layout.Range(part)
	edgeSize := k.EdgeFmt.EdgeSize()
	out.N = len(data) / edgeSize
	typed := k.GrabRecParts()
	out.Typed = typed
	batch := k.batchScatter
	if k.Rewriter != nil || !readsInPlace(data) {
		batch = nil
	}
	hints := k.hints.row(part)
	blk, _ := k.blockPool.Get().(*scatterBlock[U])
	if blk == nil {
		blk = new(scatterBlock[U])
	}
	for data = data[:out.N*edgeSize]; len(data) > 0; {
		n := min(edgeBlock*edgeSize, len(data))
		block := data[:n]
		data = data[n:]
		var emitted int
		if batch != nil {
			emitted = batch(iter, block, lo, verts, blk.dsts[:], blk.vals[:])
		} else {
			for i, e := range k.EdgeFmt.DecodeEdges(blk.edges[:0], block) {
				src := &verts[e.Src-lo]
				if k.Rewriter != nil && k.Rewriter.KeepEdge(iter, e, src) {
					// The §6.1 rewriter keeps the record as it lies.
					if out.EdgesNext == nil {
						out.EdgesNext = k.GrabBuf(0)
					}
					out.EdgesNext = append(out.EdgesNext, block[i*edgeSize:(i+1)*edgeSize]...)
				}
				if dst, val, emit := k.Prog.Scatter(iter, e, src); emit {
					blk.dsts[emitted], blk.vals[emitted] = dst, val
					emitted++
				}
			}
		}
		for i := 0; i < emitted; i++ {
			dst, val := blk.dsts[i], blk.vals[i]
			tp, tlo := loc.of(dst)
			// typed[tp] is resliced in place, which stores its length
			// alone: no pointer store, so no write barrier, per record.
			fill := len(typed[tp])
			if fill == cap(typed[tp]) {
				if typed[tp] == nil {
					typed[tp] = k.GrabRecs(hints.want(tp))
				} else {
					typed[tp] = k.regrowRecs(typed[tp], fill+fill/2)
				}
			}
			typed[tp] = typed[tp][:fill+1]
			typed[tp][fill] = UpdRec[U]{Off: uint32(uint64(dst) - tlo), Val: val}
		}
	}
	k.blockPool.Put(blk)
	for tp, recs := range typed {
		if len(recs) > 0 {
			hints.saw(tp, len(recs))
		}
	}
}

// MergeScatter merges one chunk's scatter result into the scattering
// machine's streams — both drivers' one merge, run in chunk order: the
// rewritten edges go to next; each destination's records go through
// comb when the combiner is on (nil otherwise), or else leave their slot
// for ship, which owns them from then on, in ascending destination
// order; then the chunk's scratch returns to the pools and the arena. It
// returns the records comb merged, each one hash-merge (§11.1).
func (k *Kernel[V, U, A]) MergeScatter(out *ScatterOut[U], comb *CombineBuf[V, U, A], next func([]byte), ship func(tp int, recs []UpdRec[U])) (merged int) {
	if out.EdgesNext != nil {
		next(out.EdgesNext)
	}
	if comb != nil {
		merged = comb.Add(out.Typed, ship)
	} else {
		for tp, recs := range out.Typed {
			if recs != nil {
				out.Typed[tp] = nil
				ship(tp, recs)
			}
		}
	}
	k.ReleaseScatterOut(out)
	return merged
}

// FoldUpdates is the gather computation on one decoded update chunk of
// the partition verts and accums belong to: each record folds into the
// accumulator its Off indexes, in record order, through the program's
// batch form when it has one. verts is read-only. Callers serialize one
// partition's chunks in their stream order — the order a float fold sees.
func (k *Kernel[V, U, A]) FoldUpdates(verts []V, accums []A, recs []UpdRec[U]) {
	if k.batchGather != nil {
		k.batchGather.GatherBatch(accums, recs, verts)
		return
	}
	prog := k.Prog
	for i := range recs {
		u := &recs[i]
		accums[u.Off] = prog.Gather(accums[u.Off], u.Val, &verts[u.Off])
	}
}

// ApplyVertices is the apply step on partition part (§5.3); the count of
// changed vertices feeds the convergence vote (Decider.Changed). Apply
// may keep private program state: one goroutine at a time.
func (k *Kernel[V, U, A]) ApplyVertices(iter, part int, verts []V, accums []A) (changed uint64) {
	lo, _ := k.Layout.Range(part)
	for i := range verts {
		if k.Prog.Apply(iter, lo+graph.VertexID(i), &verts[i], accums[i]) {
			changed++
		}
	}
	return changed
}

// ResetAccums readies a partition's accumulators for a gather and
// returns them.
func (k *Kernel[V, U, A]) ResetAccums(accums []A) []A {
	for i := range accums {
		accums[i] = k.Prog.InitAccum()
	}
	return accums
}

// GrabRecs takes an empty slab holding at least n records from the run's
// record arena; ReleaseRecs returns it once its records are consumed (a
// fold, a spill's write). The one pair behind every []UpdRec[U] of
// either plane.
func (k *Kernel[V, U, A]) GrabRecs(n int) []UpdRec[U] { return k.arena.grab(n) }

// ReleaseRecs returns a slab to the arena. The caller must not touch it
// afterwards: its next holder may be another goroutine.
func (k *Kernel[V, U, A]) ReleaseRecs(recs []UpdRec[U]) { k.arena.release(recs) }

// regrowRecs moves recs onto a slab holding at least n records (n >
// cap(recs)) and returns the outgrown one to the arena.
func (k *Kernel[V, U, A]) regrowRecs(recs []UpdRec[U], n int) []UpdRec[U] {
	grown := k.arena.grab(n)[:len(recs)]
	copy(grown, recs)
	k.arena.release(recs)
	return grown
}

// ArenaHighWater is the most slab capacity, in records, the run has had
// out of its arena at one moment since the last decision point — what a
// test holds against the memory budget.
func (k *Kernel[V, U, A]) ArenaHighWater() int64 {
	k.arena.mu.Lock()
	defer k.arena.mu.Unlock()
	return k.arena.highWater
}

// GrabBuf / ReleaseBuf pool the per-chunk byte buffers (rewritten edges,
// the DES driver's edge chunks, ScatterChunk's encoded updates). GrabBuf
// returns an empty buffer holding at least n bytes; a pooled one too
// small for n is dropped. Kernels and Wires grab, the driver releases
// once nobody reads the buffer any more. An edge chunk the DES store
// holds is never released: scatter reads it every iteration.
func (k *Kernel[V, U, A]) GrabBuf(n int) []byte {
	if b, ok := k.bufPool.Get().([]byte); ok && cap(b) >= n {
		return b[:0]
	}
	return make([]byte, 0, n)
}

// ReleaseBuf recycles a byte buffer, unless its capacity exceeds
// DefaultRetainBytes.
func (k *Kernel[V, U, A]) ReleaseBuf(b []byte) {
	if cap(b) == 0 || cap(b) > DefaultRetainBytes {
		return
	}
	k.bufPool.Put(b[:0])
}

// GrabRecParts returns a pooled per-destination-partition record-slice
// table.
func (k *Kernel[V, U, A]) GrabRecParts() [][]UpdRec[U] {
	if v := k.recPartsPool.Get(); v != nil {
		return v.([][]UpdRec[U])
	}
	return make([][]UpdRec[U], k.Layout.NumPartitions)
}

// ReleaseScatterOut returns a chunk result's scratch memory to the pools
// and the arena: every Typed slab still in its slot, the table, the
// encoded updates and the rewritten edges.
func (k *Kernel[V, U, A]) ReleaseScatterOut(out *ScatterOut[U]) {
	k.releaseUpdates(out)
	k.releaseTyped(out)
	if out.EdgesNext != nil {
		k.ReleaseBuf(out.EdgesNext)
		out.EdgesNext = nil
	}
}

// releaseTyped returns out's record slabs to the arena and their table
// to its pool.
func (k *Kernel[V, U, A]) releaseTyped(out *ScatterOut[U]) {
	if out.Typed == nil {
		return
	}
	for tp, recs := range out.Typed {
		if recs != nil {
			k.ReleaseRecs(recs)
			out.Typed[tp] = nil
		}
	}
	k.recPartsPool.Put(out.Typed)
	out.Typed = nil
}

// StealCriterion evaluates Equation 2 with the alpha bias of §10.2:
// accept iff V + D/(H+1) < alpha * D/H. Both drivers consult it — the DES
// arbiter with modeled storage-byte estimates, the native scheduler hook
// with live queue depths.
func StealCriterion(vBytes, dBytes int64, workers int, alpha float64) bool {
	if dBytes <= 0 {
		return false
	}
	if alpha == 0 {
		return false
	}
	h := float64(workers)
	if h < 1 {
		h = 1
	}
	d := float64(dBytes)
	lhs := float64(vBytes) + d/(h+1)
	rhs := alpha * d / h
	return lhs < rhs
}

// SplitInput divides an unsorted edge list of n edges evenly across nm
// machines, modeling the paper's input "randomly distributed over all
// storage devices" (§8): machine i reads positions [lo, hi) of the
// list, ⌈n/nm⌉ of them but for the last machines.
func SplitInput(n, nm int) [][2]int {
	out := make([][2]int, nm)
	per := (n + nm - 1) / nm
	for i := range out {
		out[i] = [2]int{min(i*per, n), min((i+1)*per, n)}
	}
	return out
}

// SpillLimit is the spill threshold in bytes for record-aligned buffers:
// the smallest whole number of records covering chunkBytes.
func SpillLimit(chunkBytes, recSize int) int {
	n := (chunkBytes + recSize - 1) / recSize
	if n < 1 {
		n = 1
	}
	return n * recSize
}
