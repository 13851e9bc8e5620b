package algorithms

import (
	"encoding/binary"

	"chaos/internal/gas"
	"chaos/internal/graph"
)

// WCCVertex is the per-vertex state of weakly connected components.
type WCCVertex struct {
	Label  uint32
	Active bool
}

// WCC finds weakly connected components by minimum-label propagation on an
// undirected edge list: every vertex starts with its own ID and adopts the
// smallest label it hears.
type WCC struct{}

// Name implements gas.Program.
func (*WCC) Name() string { return "WCC" }

// Weighted implements gas.Program.
func (*WCC) Weighted() bool { return false }

// NeedsDegrees implements gas.Program.
func (*WCC) NeedsDegrees() bool { return false }

// Init implements gas.Program.
func (*WCC) Init(id graph.VertexID, v *WCCVertex, _ uint32) {
	v.Label = uint32(id)
	v.Active = true
}

// Scatter implements gas.Program: active vertices send their label. It
// has no branch, so a batch over it has none either.
func (*WCC) Scatter(_ int, e graph.Edge, src *WCCVertex) (graph.VertexID, uint32, bool) {
	return e.Dst, src.Label, src.Active
}

// InitAccum implements gas.Program.
func (*WCC) InitAccum() uint32 { return unreachable }

// Gather implements gas.Program.
func (*WCC) Gather(a uint32, u uint32, _ *WCCVertex) uint32 { return min(a, u) }

// Merge implements gas.Program.
func (*WCC) Merge(a, b uint32) uint32 { return min(a, b) }

// Apply implements gas.Program.
func (*WCC) Apply(_ int, _ graph.VertexID, v *WCCVertex, a uint32) bool {
	if a < v.Label {
		v.Label = a
		v.Active = true
		return true
	}
	v.Active = false
	return false
}

// ScatterBatch implements gas.BatchScatterer: Scatter, once per edge.
// Every pair is stored and only an emitted one kept, so the loop has no
// branch on the data.
func (w *WCC) ScatterBatch(iter int, edges []graph.CompactEdge, lo graph.VertexID, verts []WCCVertex, dsts []graph.VertexID, vals []uint32) int {
	n := 0
	for _, e := range edges {
		dst, val, emit := w.Scatter(iter, e.Edge(), &verts[graph.VertexID(e.Src)-lo])
		dsts[n], vals[n] = dst, val
		if emit {
			n++
		}
	}
	return n
}

// GatherBatch implements gas.BatchGatherer: Gather, once per record.
func (w *WCC) GatherBatch(accums []uint32, recs []gas.UpdRec[uint32], verts []WCCVertex) {
	for _, u := range recs {
		accums[u.Off] = w.Gather(accums[u.Off], u.Val, &verts[u.Off])
	}
}

// Converged implements gas.Program.
func (*WCC) Converged(_ int, changed uint64) bool { return changed == 0 }

// VertexCodec implements gas.Program.
func (*WCC) VertexCodec() gas.Codec[WCCVertex] {
	return gas.Codec[WCCVertex]{
		Bytes: 5,
		Put: func(buf []byte, v *WCCVertex) {
			binary.LittleEndian.PutUint32(buf, v.Label)
			buf[4] = b2u(v.Active)
		},
		Get: func(buf []byte, v *WCCVertex) {
			v.Label = binary.LittleEndian.Uint32(buf)
			v.Active = buf[4] != 0
		},
	}
}

// UpdateCodec implements gas.Program.
func (*WCC) UpdateCodec() gas.Codec[uint32] { return gas.Uint32Codec() }

// AccumBytes implements gas.Program.
func (*WCC) AccumBytes() int { return 4 }

// Combine implements gas.Combiner: competing labels keep the minimum.
func (*WCC) Combine(a, b uint32) uint32 { return min(a, b) }
