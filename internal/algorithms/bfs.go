package algorithms

import (
	"encoding/binary"

	"chaos/internal/gas"
	"chaos/internal/graph"
)

// BFSVertex is the per-vertex state of breadth-first search: the BFS level
// (depth from the root) and the frontier flag.
type BFSVertex struct {
	Level  uint32
	Active bool
}

// BFS computes breadth-first levels from Root by frontier expansion: newly
// discovered vertices scatter their level along out-edges; gather keeps the
// minimum proposed level.
type BFS struct {
	// Root is the search root (vertex 0 by default).
	Root graph.VertexID
}

// Name implements gas.Program.
func (*BFS) Name() string { return "BFS" }

// Weighted implements gas.Program.
func (*BFS) Weighted() bool { return false }

// NeedsDegrees implements gas.Program.
func (*BFS) NeedsDegrees() bool { return false }

// Init implements gas.Program.
func (b *BFS) Init(id graph.VertexID, v *BFSVertex, _ uint32) {
	if id == b.Root {
		v.Level = 0
		v.Active = true
	} else {
		v.Level = unreachable
		v.Active = false
	}
}

// Scatter implements gas.Program: frontier vertices propose level+1 to
// their neighbors.
func (b *BFS) Scatter(_ int, e graph.Edge, src *BFSVertex) (graph.VertexID, uint32, bool) {
	return e.Dst, src.Level + 1, src.Active
}

// InitAccum implements gas.Program.
func (*BFS) InitAccum() uint32 { return unreachable }

// Gather implements gas.Program: minimum proposed level.
func (*BFS) Gather(a uint32, u uint32, _ *BFSVertex) uint32 { return min(a, u) }

// Merge implements gas.Program.
func (*BFS) Merge(a, b uint32) uint32 { return min(a, b) }

// Apply implements gas.Program: adopt a strictly better level and join the
// next frontier.
func (b *BFS) Apply(_ int, _ graph.VertexID, v *BFSVertex, a uint32) bool {
	if a < v.Level {
		v.Level = a
		v.Active = true
		return true
	}
	v.Active = false
	return false
}

// ScatterBatch implements gas.BatchScatterer: Scatter, once per edge.
// Every pair is stored and only an emitted one kept, so the loop has no
// branch on the data.
func (b *BFS) ScatterBatch(iter int, edges []graph.CompactEdge, lo graph.VertexID, verts []BFSVertex, dsts []graph.VertexID, vals []uint32) int {
	n := 0
	for _, e := range edges {
		dst, val, emit := b.Scatter(iter, e.Edge(), &verts[graph.VertexID(e.Src)-lo])
		dsts[n], vals[n] = dst, val
		if emit {
			n++
		}
	}
	return n
}

// GatherBatch implements gas.BatchGatherer: Gather, once per record.
func (b *BFS) GatherBatch(accums []uint32, recs []gas.UpdRec[uint32], verts []BFSVertex) {
	for _, u := range recs {
		accums[u.Off] = b.Gather(accums[u.Off], u.Val, &verts[u.Off])
	}
}

// Converged implements gas.Program: stop when the frontier dies out.
func (*BFS) Converged(_ int, changed uint64) bool { return changed == 0 }

// VertexCodec implements gas.Program.
func (*BFS) VertexCodec() gas.Codec[BFSVertex] {
	return gas.Codec[BFSVertex]{
		Bytes: 5,
		Put: func(buf []byte, v *BFSVertex) {
			binary.LittleEndian.PutUint32(buf, v.Level)
			buf[4] = b2u(v.Active)
		},
		Get: func(buf []byte, v *BFSVertex) {
			v.Level = binary.LittleEndian.Uint32(buf)
			v.Active = buf[4] != 0
		},
	}
}

// UpdateCodec implements gas.Program.
func (*BFS) UpdateCodec() gas.Codec[uint32] { return gas.Uint32Codec() }

// AccumBytes implements gas.Program.
func (*BFS) AccumBytes() int { return 4 }

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Combine implements gas.Combiner: competing level proposals keep the
// minimum.
func (*BFS) Combine(a, b uint32) uint32 { return min(a, b) }
