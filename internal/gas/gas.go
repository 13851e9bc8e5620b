// Package gas defines the Gather-Apply-Scatter programming model Chaos
// exposes to algorithms (§2). The model is edge-centric: during scatter the
// engine streams edges and calls Scatter with the source vertex state;
// during gather it streams updates and folds them into per-vertex
// accumulators; apply folds accumulators into vertex values.
//
// Chaos follows the PowerLyra simplification: updates are scattered only
// over outgoing edges and gathered only for incoming edges. As in the
// paper, the final result of the user functions must be independent of
// application order; the engine exploits this order-independence freely.
//
// Two deliberate extensions over the paper's minimal interface, both of
// which X-Stream's own algorithm suite required:
//
//   - Scatter returns the update's destination vertex explicitly (normally
//     e.Dst). Multi-phase algorithms such as MCST route updates to e.Src or
//     to a component representative.
//   - Accumulators expose an explicit commutative Merge. Figure 3 of the
//     paper applies each replica's accumulator in turn; Merge is the
//     order-independent fixed point of that loop and keeps algorithms like
//     PageRank expressible without hidden state.
package gas

import "chaos/internal/graph"

// Codec serializes fixed-size records of type T. Fixed sizes keep chunk
// arithmetic exact, mirroring the paper's 4/8-byte on-disk fields.
//
// Put and Get are func values, so the compiler cannot see that they do
// not retain v: a pointer to a local handed to either one moves that
// local to the heap. Per-record callers therefore pass a pointer into
// the slice they are filling or draining (or one scratch value hoisted
// out of the loop), never the address of a loop-local.
type Codec[T any] struct {
	// Bytes is the encoded record size.
	Bytes int
	// Put encodes *v into buf[:Bytes].
	Put func(buf []byte, v *T)
	// Get decodes buf[:Bytes] into *v, assigning every field: callers
	// decode into recycled slice elements without clearing them first.
	Get func(buf []byte, v *T)
}

// UpdRec is one decoded update record: the destination vertex's index
// inside its destination partition, plus the payload. Whatever holds a
// record slice knows that partition (a scatter output's slot, a
// transport bucket, an update chunk of the partition's update set), so
// the record does not repeat it — and is 8 bytes for a 4-byte payload,
// the size it has on the wire below 2^32 vertices (§8).
type UpdRec[U any] struct {
	Off uint32
	Val U
}

// EncodeSlice encodes vs into a fresh buffer.
func (c Codec[T]) EncodeSlice(vs []T) []byte {
	buf := make([]byte, c.Bytes*len(vs))
	for i := range vs {
		c.Put(buf[i*c.Bytes:], &vs[i])
	}
	return buf
}

// Program is a GAS computation over vertex state V, update payload U and
// accumulator A.
type Program[V, U, A any] interface {
	// Name identifies the algorithm in output.
	Name() string
	// Weighted reports whether the algorithm consumes edge weights; it
	// selects the on-disk edge format (§8).
	Weighted() bool
	// Init initializes a vertex before the first iteration. outDegree is
	// the vertex's out-degree, counted for free during the pre-processing
	// pass for programs whose NeedsDegrees returns true (else zero).
	Init(id graph.VertexID, v *V, outDegree uint32)
	// NeedsDegrees requests out-degree counting during pre-processing.
	NeedsDegrees() bool
	// Scatter may emit an update for edge e given the source vertex
	// state. It returns the update's destination (normally e.Dst), the
	// payload, and whether to emit at all.
	Scatter(iter int, e graph.Edge, src *V) (dst graph.VertexID, val U, emit bool)
	// InitAccum returns the identity accumulator.
	InitAccum() A
	// Gather folds one update into an accumulator. v is the destination
	// vertex's current (pre-apply) state, read-only; it is available
	// because the gather phase loads the partition's vertex set (§5.2),
	// and algorithms such as SCC filter updates against it.
	Gather(a A, u U, v *V) A
	// Merge combines two accumulators; it must be commutative and
	// associative, and Merge(x, InitAccum()) must equal x.
	Merge(a, b A) A
	// Apply folds the accumulator into the vertex value and reports
	// whether the vertex changed (drives convergence).
	Apply(iter int, id graph.VertexID, v *V, a A) bool
	// Converged reports whether the computation is complete after
	// iteration iter in which changed vertices changed.
	Converged(iter int, changed uint64) bool
	// VertexCodec serializes vertex state for storage.
	VertexCodec() Codec[V]
	// UpdateCodec describes the update payload's §8 encoding. Its Bytes
	// sizes an update record (drive.Kernel.UpdBytes), which the DES
	// charges and the transport budget counts; only bench/'s layer
	// probes and the wire-size tests encode with it.
	UpdateCodec() Codec[U]
	// AccumBytes is the in-memory accumulator size, used to cost the
	// master's fetch of stealer accumulators over the network.
	AccumBytes() int
}

// Combiner is an optional Program extension: programs whose updates to the
// same destination can be pre-merged (a Pregel-style combiner, §11.1 of
// the paper) implement it, and the engine applies it in each scatter
// stream's combiner buffer, once per emitted update, when
// Config.CombineUpdates is set. The paper found that for
// Chaos "the cost of merging the updates to the same vertex outweighs the
// benefits from reduced network traffic"; the ablation benchmark measures
// exactly that trade.
type Combiner[U any] interface {
	// Combine merges two updates addressed to the same vertex.
	Combine(a, b U) U
}

// BatchScatterer is an optional Program extension: Scatter over a block
// of edge records of the program's compact format (E, graph.CompactEdge
// or graph.CompactWeightedEdge as Weighted says), read where they lie in
// the edge chunk, in a single call — so the engine neither decodes the
// block nor crosses the program boundary once per edge. The per-edge
// Scatter stays the definition; an implementation is a loop over it on
// the concrete receiver, where the compiler can inline it. Graphs of 2^32
// vertices or more have no compact format: there the engine decodes and
// calls Scatter edge by edge.
type BatchScatterer[V, U any, E graph.CompactRecord] interface {
	// ScatterBatch calls Scatter for each edge in order, with e =
	// edges[i].Edge() and src = &verts[e.Src-lo], writes the emitted
	// (destination, payload) pairs to dsts and vals in edge order and
	// returns their count. dsts and vals hold at least len(edges); the
	// slots past the count are scratch it may write.
	ScatterBatch(iter int, edges []E, lo graph.VertexID, verts []V, dsts []graph.VertexID, vals []U) int
}

// BatchGatherer is the gather-side twin of BatchScatterer: one call folds
// a record slice of one partition into its accumulators.
type BatchGatherer[V, U, A any] interface {
	// GatherBatch folds recs in record order: accums[r.Off] =
	// Gather(accums[r.Off], r.Val, &verts[r.Off]).
	GatherBatch(accums []A, recs []UpdRec[U], verts []V)
}

// EdgeRewriter is an optional Program extension implementing the extended
// model of §6.1, in which "edges may also be rewritten during the
// computation": the engine consults it for every edge during scatter and
// materializes a next-generation edge set, the records it keeps as they
// were, that replaces the old one at the iteration boundary. Dropping
// edges shrinks later iterations' streams (e.g. Borůvka discarding
// intra-component edges).
type EdgeRewriter[V any] interface {
	// KeepEdge reports whether to carry e into the next iteration.
	KeepEdge(iter int, e graph.Edge, src *V) bool
}
