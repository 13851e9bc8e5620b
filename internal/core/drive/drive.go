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
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/partition"
)

// UpdRec is one decoded update record (destination plus payload).
type UpdRec[U any] struct {
	Dst graph.VertexID
	Val U
}

// ScatterOut is the pure result of scattering one edge chunk: everything
// a driver needs to replay the chunk's side effects (buffer appends,
// spills, CPU charges) without touching a single record itself.
type ScatterOut[U any] struct {
	N          int      // edge records decoded
	CombineOps int      // combiner merges performed
	Updates    [][]byte // encoded update records per destination partition
	// Typed replaces Updates under ScatterChunkTyped (the native
	// zero-copy path): per-destination-partition arena slabs, whose
	// ownership the driver transfers to its Transport.
	Typed [][]UpdRec[U]
	// Combined replaces Updates when the Pregel-style combiner is active:
	// per-destination-partition maps of pre-merged updates.
	Combined []map[graph.VertexID]U
	// EdgesNext holds the chunk's surviving rewritten edges (§6.1
	// extended model).
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
	// IDBytes is the update destination field width (4 or 8 bytes, §8);
	// UpdBytes = IDBytes + UpdCodec.Bytes is the full update record.
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

	// RetainBytes bounds the capacity of byte buffers returned to the
	// pools (ReleaseBuf): anything larger is dropped for the garbage
	// collector, so one giant iteration cannot pin its high-water mark
	// for the rest of the run. Zero disables the bound (tests only);
	// NewKernel sets DefaultRetainBytes. Record slabs follow the arena's
	// trim rule instead (Decider.Decide).
	RetainBytes int

	arena recArena[U]
	hints slabHints
	// The pools are allocated apart from the Kernel. The runtime keeps
	// every sync.Pool that was ever used on a list of its own until two
	// garbage collections after the pool's last use; a pool embedded here
	// would keep the whole Kernel, and with it the arena's slabs,
	// reachable that long after the run — and a run that allocates little
	// sees few collections.
	bufPool, partsPool, recPartsPool *sync.Pool
}

// DefaultRetainBytes is the pool retention bound NewKernel installs: the
// largest byte-buffer capacity worth keeping across iterations.
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
		bufPool: new(sync.Pool), partsPool: new(sync.Pool), recPartsPool: new(sync.Pool),
	}
	if layout.NumVertices < 1<<32 {
		k.IDBytes = 4
	} else {
		k.IDBytes = 8
	}
	k.UpdCodec = prog.UpdateCodec()
	k.VCodec = prog.VertexCodec()
	k.UpdBytes = k.IDBytes + k.UpdCodec.Bytes
	k.VBytes = k.VCodec.Bytes
	k.RetainBytes = DefaultRetainBytes
	return k
}

// EncodeDst writes an update's destination ID field (4 or 8 bytes, §8).
func (k *Kernel[V, U, A]) EncodeDst(buf []byte, dst graph.VertexID) {
	if k.IDBytes == 4 {
		binary.LittleEndian.PutUint32(buf, uint32(dst))
	} else {
		binary.LittleEndian.PutUint64(buf, uint64(dst))
	}
}

// DecodeDst reads an update's destination ID field.
func (k *Kernel[V, U, A]) DecodeDst(buf []byte) graph.VertexID {
	if k.IDBytes == 4 {
		return graph.VertexID(binary.LittleEndian.Uint32(buf))
	}
	return graph.VertexID(binary.LittleEndian.Uint64(buf))
}

// AppendUpdate encodes one update record (destination ID field plus
// payload, §8) onto buf. The single definition of the update wire
// format's encode side.
func (k *Kernel[V, U, A]) AppendUpdate(buf []byte, dst graph.VertexID, val *U) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, k.UpdBytes)...)
	k.EncodeDst(buf[off:], dst)
	k.UpdCodec.Put(buf[off+k.IDBytes:], val)
	return buf
}

// AppendRecs encodes a typed record slice onto buf — the spill side of
// the transport seam, and the bulk inverse of DecodeUpdateChunk: buf grows
// once, to the chunk's encoded size.
func (k *Kernel[V, U, A]) AppendRecs(buf []byte, recs []UpdRec[U]) []byte {
	buf = slices.Grow(buf, len(recs)*k.UpdBytes)
	for i := range recs {
		buf = k.AppendUpdate(buf, recs[i].Dst, &recs[i].Val)
	}
	return buf
}

// DecodeUpdate decodes one update record into *r, the inverse of
// AppendUpdate. It decodes in place (see gas.Codec): r points into the
// caller's record slice, so nothing escapes per record.
func (k *Kernel[V, U, A]) DecodeUpdate(rec []byte, r *UpdRec[U]) {
	r.Dst = k.DecodeDst(rec)
	k.UpdCodec.Get(rec[k.IDBytes:], &r.Val)
}

// DecodeUpdateChunk bulk-decodes one update chunk, appending to recs
// (nil for a fresh slab): every record decodes into its own slot. When
// recs cannot hold the chunk, the result is an arena slab that can and
// recs goes back to the arena — the caller keeps only the result.
func (k *Kernel[V, U, A]) DecodeUpdateChunk(recs []UpdRec[U], data []byte) []UpdRec[U] {
	ub := k.UpdBytes
	n := len(data) / ub
	base := len(recs)
	if cap(recs) < base+n {
		recs = k.regrowRecs(recs, base+n)
	}
	recs = recs[:base+n]
	for i := 0; i < n; i++ {
		k.DecodeUpdate(data[i*ub:], &recs[base+i])
	}
	return recs
}

// edgeBlock is how many edges the scatter kernels decode at a time:
// graph.Format.DecodeEdges examines the format once per block instead of
// twice per edge, and the block's scratch stays on the stack.
const edgeBlock = 256

// ScatterChunk is the pure scatter computation on one edge chunk: decode
// each edge, consult the rewriter, apply the program's Scatter, and
// encode emitted updates grouped by destination partition. It may run on
// any goroutine and must not touch driver state; verts is read-only and
// stable for the whole phase.
func (k *Kernel[V, U, A]) ScatterChunk(iter, part int, verts []V, data []byte, out *ScatterOut[U]) {
	layout := k.Layout
	lo, _ := layout.Range(part)
	edgeSize := k.EdgeFmt.EdgeSize()
	out.N = len(data) / edgeSize
	out.Updates = k.GrabParts()
	if k.Combiner != nil {
		out.Combined = make([]map[graph.VertexID]U, layout.NumPartitions)
	}
	// val is handed to the func-valued codec by address, which moves it
	// to the heap: one scratch value per chunk, not one per update.
	var (
		dst  graph.VertexID
		val  U
		emit bool
	)
	var block [edgeBlock]graph.Edge
	for data = data[:out.N*edgeSize]; len(data) > 0; {
		n := min(edgeBlock*edgeSize, len(data))
		for _, e := range k.EdgeFmt.DecodeEdges(block[:0], data[:n]) {
			src := &verts[e.Src-lo]
			if k.Rewriter != nil {
				k.rewriteEdge(iter, e, src, out)
			}
			dst, val, emit = k.Prog.Scatter(iter, e, src)
			if !emit {
				continue
			}
			tp := layout.Of(dst)
			if k.Combiner != nil {
				k.combine(out, tp, dst, val)
				continue
			}
			buf := out.Updates[tp]
			if buf == nil {
				buf = k.GrabBuf()
			}
			out.Updates[tp] = k.AppendUpdate(buf, dst, &val)
		}
		data = data[n:]
	}
}

// ScatterChunkTyped is ScatterChunk for drivers that move decoded
// records through a Transport (the native zero-copy path): emitted
// updates stay typed, grouped per destination partition in arena slabs,
// and are never encoded unless a spilling transport later pushes them
// across the memory-budget boundary. Each slab starts at the size this
// (part, destination) pair is known to produce (slabHints) and grows
// through the arena when a chunk produces more. The edge loop is
// deliberately a twin of ScatterChunk's — the two differ only in the
// emit step, and sharing it through a per-update closure would tax the
// DES driver's hot path.
func (k *Kernel[V, U, A]) ScatterChunkTyped(iter, part int, verts []V, data []byte, out *ScatterOut[U]) {
	layout := k.Layout
	lo, _ := layout.Range(part)
	edgeSize := k.EdgeFmt.EdgeSize()
	out.N = len(data) / edgeSize
	typed := k.GrabRecParts()
	out.Typed = typed
	if k.Combiner != nil {
		out.Combined = make([]map[graph.VertexID]U, layout.NumPartitions)
	}
	hints := k.hints.row(part)
	var block [edgeBlock]graph.Edge
	for data = data[:out.N*edgeSize]; len(data) > 0; {
		n := min(edgeBlock*edgeSize, len(data))
		for _, e := range k.EdgeFmt.DecodeEdges(block[:0], data[:n]) {
			src := &verts[e.Src-lo]
			if k.Rewriter != nil {
				k.rewriteEdge(iter, e, src, out)
			}
			dst, val, emit := k.Prog.Scatter(iter, e, src)
			if !emit {
				continue
			}
			tp := layout.Of(dst)
			if k.Combiner != nil {
				k.combine(out, tp, dst, val)
				continue
			}
			recs := typed[tp]
			if len(recs) == cap(recs) {
				if recs == nil {
					recs = k.GrabRecs(hints.want(tp))
				} else {
					recs = k.regrowRecs(recs, len(recs)+len(recs)/2)
				}
			}
			recs = recs[:len(recs)+1]
			recs[len(recs)-1] = UpdRec[U]{Dst: dst, Val: val}
			typed[tp] = recs
		}
		data = data[n:]
	}
	for tp, recs := range typed {
		if len(recs) > 0 {
			hints.saw(tp, len(recs))
		}
	}
}

// rewriteEdge consults the §6.1 rewriter about one edge and keeps the
// survivor for the next generation's edge set.
func (k *Kernel[V, U, A]) rewriteEdge(iter int, e graph.Edge, src *V, out *ScatterOut[U]) {
	ne, keep := k.Rewriter.RewriteEdge(iter, e, src)
	if !keep {
		return
	}
	if out.EdgesNext == nil {
		out.EdgesNext = k.GrabBuf()
	}
	off := len(out.EdgesNext)
	out.EdgesNext = append(out.EdgesNext, make([]byte, k.EdgeFmt.EdgeSize())...)
	k.EdgeFmt.Encode(out.EdgesNext[off:], ne)
}

// combine merges one emitted update into the chunk's per-destination
// combiner maps (§11.1).
func (k *Kernel[V, U, A]) combine(out *ScatterOut[U], tp int, dst graph.VertexID, val U) {
	mp := out.Combined[tp]
	if mp == nil {
		mp = make(map[graph.VertexID]U)
		out.Combined[tp] = mp
	}
	if old, ok := mp[dst]; ok {
		val = k.Combiner.Combine(old, val)
	}
	mp[dst] = val
	out.CombineOps++
}

// FoldUpdates is the gather computation on one decoded update chunk of
// partition part: each record folds into its destination's accumulator,
// in record order. verts is read-only. Callers serialize one partition's
// chunks in their stream order — the order a float fold sees.
func (k *Kernel[V, U, A]) FoldUpdates(part int, verts []V, accums []A, recs []UpdRec[U]) {
	prog := k.Prog
	lo, _ := k.Layout.Range(part)
	for i := range recs {
		u := &recs[i]
		accums[u.Dst-lo] = prog.Gather(accums[u.Dst-lo], u.Val, &verts[u.Dst-lo])
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
// fold, a spill's encode). The one pair behind every []UpdRec[U] of
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

// GrabBuf / ReleaseBuf pool the per-chunk encode buffers; GrabParts pools
// the per-destination-partition buffer tables. Kernels grab, the driver
// releases after merging a chunk's result.
func (k *Kernel[V, U, A]) GrabBuf() []byte {
	if v := k.bufPool.Get(); v != nil {
		return v.([]byte)[:0]
	}
	return nil
}

// ReleaseBuf recycles a per-chunk encode buffer, unless its capacity
// exceeds RetainBytes.
func (k *Kernel[V, U, A]) ReleaseBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	if k.RetainBytes > 0 && cap(b) > k.RetainBytes {
		return
	}
	k.bufPool.Put(b[:0])
}

// GrabParts returns a pooled per-destination-partition buffer table.
func (k *Kernel[V, U, A]) GrabParts() [][]byte {
	if v := k.partsPool.Get(); v != nil {
		return v.([][]byte)
	}
	return make([][]byte, k.Layout.NumPartitions)
}

// GrabRecParts returns a pooled per-destination-partition record-slice
// table (the typed twin of GrabParts).
func (k *Kernel[V, U, A]) GrabRecParts() [][]UpdRec[U] {
	if v := k.recPartsPool.Get(); v != nil {
		return v.([][]UpdRec[U])
	}
	return make([][]UpdRec[U], k.Layout.NumPartitions)
}

// ReleaseScatterOut returns a merged chunk result's scratch memory to the
// pools and the arena. Typed slots the driver handed to its Transport
// must be nil'd before the call — whatever remains is recycled here.
func (k *Kernel[V, U, A]) ReleaseScatterOut(out *ScatterOut[U]) {
	if out.Updates != nil {
		for tp, b := range out.Updates {
			if b != nil {
				k.ReleaseBuf(b)
				out.Updates[tp] = nil
			}
		}
		k.partsPool.Put(out.Updates)
		out.Updates = nil
	}
	if out.Typed != nil {
		for tp, recs := range out.Typed {
			if recs != nil {
				k.ReleaseRecs(recs)
				out.Typed[tp] = nil
			}
		}
		k.recPartsPool.Put(out.Typed)
		out.Typed = nil
	}
	if out.EdgesNext != nil {
		k.ReleaseBuf(out.EdgesNext)
		out.EdgesNext = nil
	}
	out.Combined = nil
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

// SplitInput divides the unsorted edge list evenly across machines,
// modeling the paper's input "randomly distributed over all storage
// devices" (§8).
func SplitInput(edges []graph.Edge, nm int) [][]graph.Edge {
	out := make([][]graph.Edge, nm)
	per := (len(edges) + nm - 1) / nm
	for i := 0; i < nm; i++ {
		lo := i * per
		hi := lo + per
		if lo > len(edges) {
			lo = len(edges)
		}
		if hi > len(edges) {
			hi = len(edges)
		}
		out[i] = edges[lo:hi]
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
