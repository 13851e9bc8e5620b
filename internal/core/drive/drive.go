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
	// zero-copy path): per-destination-partition pooled record slices,
	// whose ownership the driver transfers to its Transport.
	Typed [][]UpdRec[U]
	// Combined replaces Updates when the Pregel-style combiner is active:
	// per-destination-partition maps of pre-merged updates.
	Combined []map[graph.VertexID]U
	// EdgesNext holds the chunk's surviving rewritten edges (§6.1
	// extended model).
	EdgesNext []byte
}

// Kernel bundles the driver-independent data plane of one run: record
// formats, codecs, the per-chunk scatter/gather computations, and the
// scratch-buffer pools they draw from. A Kernel is shared freely between
// goroutines; the pools are concurrency-safe and the kernels are pure.
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

	// RetainBytes bounds the capacity of scratch slices returned to the
	// pools: anything larger is dropped for the garbage collector, so
	// one giant iteration cannot pin its high-water mark for the rest
	// of the run. Zero disables the bound (tests only); NewKernel sets
	// DefaultRetainBytes.
	RetainBytes int

	recPool      sync.Pool
	bufPool      sync.Pool
	partsPool    sync.Pool
	recPartsPool sync.Pool
}

// DefaultRetainBytes is the pool retention bound NewKernel installs: the
// largest scratch-slice capacity worth keeping across iterations.
const DefaultRetainBytes = 8 << 20

// NewKernel derives the record geometry for prog over layout. weighted
// edge format selection and ID width follow §8: 4-byte destinations below
// 2^32 vertices, 8-byte above.
func NewKernel[V, U, A any](prog gas.Program[V, U, A], layout *partition.Layout) *Kernel[V, U, A] {
	k := &Kernel[V, U, A]{
		Prog:    prog,
		Layout:  layout,
		EdgeFmt: graph.FormatFor(layout.NumVertices, prog.Weighted()),
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
// the transport seam, and the bulk inverse of DecodeUpdateChunk.
func (k *Kernel[V, U, A]) AppendRecs(buf []byte, recs []UpdRec[U]) []byte {
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

// DecodeUpdateChunk bulk-decodes one update chunk, appending to recs:
// recs grows once to the chunk's record count and every record decodes
// into its own slot.
func (k *Kernel[V, U, A]) DecodeUpdateChunk(recs []UpdRec[U], data []byte) []UpdRec[U] {
	ub := k.UpdBytes
	n := len(data) / ub
	base := len(recs)
	recs = slices.Grow(recs, n)[:base+n]
	for i := 0; i < n; i++ {
		k.DecodeUpdate(data[i*ub:], &recs[base+i])
	}
	return recs
}

// ScatterChunk is the pure scatter computation on one edge chunk: decode
// each edge, consult the rewriter, apply the program's Scatter, and
// encode emitted updates grouped by destination partition. It may run on
// any goroutine and must not touch driver state; verts is read-only and
// stable for the whole phase.
func (k *Kernel[V, U, A]) ScatterChunk(iter, part int, verts []V, data []byte, out *ScatterOut[U]) {
	lo, _ := k.Layout.Range(part)
	edgeSize := k.EdgeFmt.EdgeSize()
	n := len(data) / edgeSize
	out.N = n
	out.Updates = k.GrabParts()
	if k.Combiner != nil {
		out.Combined = make([]map[graph.VertexID]U, k.Layout.NumPartitions)
	}
	// val is handed to the func-valued codec by address, which moves it
	// to the heap: one scratch value per chunk, not one per update.
	var (
		dst  graph.VertexID
		val  U
		emit bool
	)
	for i := 0; i < n; i++ {
		e := k.EdgeFmt.Decode(data[i*edgeSize:])
		src := &verts[e.Src-lo]
		if k.Rewriter != nil {
			if ne, keep := k.Rewriter.RewriteEdge(iter, e, src); keep {
				if out.EdgesNext == nil {
					out.EdgesNext = k.GrabBuf()
				}
				off := len(out.EdgesNext)
				out.EdgesNext = append(out.EdgesNext, make([]byte, edgeSize)...)
				k.EdgeFmt.Encode(out.EdgesNext[off:], ne)
			}
		}
		dst, val, emit = k.Prog.Scatter(iter, e, src)
		if !emit {
			continue
		}
		tp := k.Layout.Of(dst)
		if k.Combiner != nil {
			mp := out.Combined[tp]
			if mp == nil {
				mp = make(map[graph.VertexID]U)
				out.Combined[tp] = mp
			}
			if old, ok := mp[dst]; ok {
				mp[dst] = k.Combiner.Combine(old, val)
			} else {
				mp[dst] = val
			}
			out.CombineOps++
			continue
		}
		buf := out.Updates[tp]
		if buf == nil {
			buf = k.GrabBuf()
		}
		out.Updates[tp] = k.AppendUpdate(buf, dst, &val)
	}
}

// ScatterChunkTyped is ScatterChunk for drivers that move decoded
// records through a Transport (the native zero-copy path): emitted
// updates stay typed, grouped per destination partition in pooled
// record slices, and are never encoded unless a spilling transport
// later pushes them across the memory-budget boundary. The edge loop is
// deliberately a twin of ScatterChunk's — the two differ only in the
// emit step, and sharing it through a per-update closure would tax the
// DES driver's hot path.
func (k *Kernel[V, U, A]) ScatterChunkTyped(iter, part int, verts []V, data []byte, out *ScatterOut[U]) {
	lo, _ := k.Layout.Range(part)
	edgeSize := k.EdgeFmt.EdgeSize()
	n := len(data) / edgeSize
	out.N = n
	out.Typed = k.GrabRecParts()
	if k.Combiner != nil {
		out.Combined = make([]map[graph.VertexID]U, k.Layout.NumPartitions)
	}
	for i := 0; i < n; i++ {
		e := k.EdgeFmt.Decode(data[i*edgeSize:])
		src := &verts[e.Src-lo]
		if k.Rewriter != nil {
			if ne, keep := k.Rewriter.RewriteEdge(iter, e, src); keep {
				if out.EdgesNext == nil {
					out.EdgesNext = k.GrabBuf()
				}
				off := len(out.EdgesNext)
				out.EdgesNext = append(out.EdgesNext, make([]byte, edgeSize)...)
				k.EdgeFmt.Encode(out.EdgesNext[off:], ne)
			}
		}
		dst, val, emit := k.Prog.Scatter(iter, e, src)
		if !emit {
			continue
		}
		tp := k.Layout.Of(dst)
		if k.Combiner != nil {
			mp := out.Combined[tp]
			if mp == nil {
				mp = make(map[graph.VertexID]U)
				out.Combined[tp] = mp
			}
			if old, ok := mp[dst]; ok {
				mp[dst] = k.Combiner.Combine(old, val)
			} else {
				mp[dst] = val
			}
			out.CombineOps++
			continue
		}
		recs := out.Typed[tp]
		if recs == nil {
			recs = k.GrabRecs()
		}
		out.Typed[tp] = append(recs, UpdRec[U]{Dst: dst, Val: val})
	}
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

// GrabRecs returns a pooled decoded-record slice; ReleaseRecs recycles it
// once a fold has consumed it.
func (k *Kernel[V, U, A]) GrabRecs() []UpdRec[U] {
	if v := k.recPool.Get(); v != nil {
		return v.([]UpdRec[U])[:0]
	}
	return nil
}

// ReleaseRecs recycles a decoded-record slice. Slices whose capacity
// exceeds RetainBytes (encoded-equivalent) are dropped instead of
// pooled, so a one-off giant chunk cannot pin its high-water mark in
// the pool for the rest of the run.
func (k *Kernel[V, U, A]) ReleaseRecs(recs []UpdRec[U]) {
	if cap(recs) == 0 {
		return
	}
	if k.RetainBytes > 0 && cap(recs)*max(k.UpdBytes, 1) > k.RetainBytes {
		return
	}
	k.recPool.Put(recs[:0])
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

// ReleaseBuf recycles a per-chunk encode buffer, subject to the same
// RetainBytes bound as ReleaseRecs.
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
// pools. Typed slots the driver handed to its Transport must be nil'd
// before the call — whatever remains is recycled here.
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
