package algorithms

import (
	"encoding/binary"
	"math"

	"chaos/internal/gas"
	"chaos/internal/graph"
)

// SSSPVertex is the per-vertex state of single-source shortest paths.
type SSSPVertex struct {
	Dist   float32
	Active bool
}

// SSSP computes single-source shortest paths by Bellman-Ford frontier
// relaxation over a weighted undirected edge list.
type SSSP struct {
	// Root is the source vertex (0 by default).
	Root graph.VertexID
}

// Name implements gas.Program.
func (*SSSP) Name() string { return "SSSP" }

// Weighted implements gas.Program.
func (*SSSP) Weighted() bool { return true }

// NeedsDegrees implements gas.Program.
func (*SSSP) NeedsDegrees() bool { return false }

// Inf is the distance of unreached vertices.
const Inf = float32(math.MaxFloat32)

// Init implements gas.Program.
func (s *SSSP) Init(id graph.VertexID, v *SSSPVertex, _ uint32) {
	if id == s.Root {
		v.Dist = 0
		v.Active = true
	} else {
		v.Dist = Inf
		v.Active = false
	}
}

// Scatter implements gas.Program: relaxed vertices propose dist+weight.
func (s *SSSP) Scatter(_ int, e graph.Edge, src *SSSPVertex) (graph.VertexID, float32, bool) {
	return e.Dst, src.Dist + e.Weight, src.Active
}

// InitAccum implements gas.Program.
func (*SSSP) InitAccum() float32 { return Inf }

// Gather implements gas.Program.
func (*SSSP) Gather(a float32, u float32, _ *SSSPVertex) float32 { return min(a, u) }

// Merge implements gas.Program.
func (*SSSP) Merge(a, b float32) float32 { return min(a, b) }

// Apply implements gas.Program.
func (*SSSP) Apply(_ int, _ graph.VertexID, v *SSSPVertex, a float32) bool {
	if a < v.Dist {
		v.Dist = a
		v.Active = true
		return true
	}
	v.Active = false
	return false
}

// ScatterBatch implements gas.BatchScatterer: Scatter, once per edge.
// Every pair is stored and only an emitted one kept, so the loop has no
// branch on the data.
func (s *SSSP) ScatterBatch(iter int, edges []graph.CompactWeightedEdge, lo graph.VertexID, verts []SSSPVertex, dsts []graph.VertexID, vals []float32) int {
	n := 0
	for _, e := range edges {
		dst, val, emit := s.Scatter(iter, e.Edge(), &verts[graph.VertexID(e.Src)-lo])
		dsts[n], vals[n] = dst, val
		if emit {
			n++
		}
	}
	return n
}

// GatherBatch implements gas.BatchGatherer: Gather, once per record.
func (s *SSSP) GatherBatch(accums []float32, recs []gas.UpdRec[float32], verts []SSSPVertex) {
	for _, u := range recs {
		accums[u.Off] = s.Gather(accums[u.Off], u.Val, &verts[u.Off])
	}
}

// Converged implements gas.Program.
func (*SSSP) Converged(_ int, changed uint64) bool { return changed == 0 }

// VertexCodec implements gas.Program.
func (*SSSP) VertexCodec() gas.Codec[SSSPVertex] {
	return gas.Codec[SSSPVertex]{
		Bytes: 5,
		Put: func(buf []byte, v *SSSPVertex) {
			binary.LittleEndian.PutUint32(buf, math.Float32bits(v.Dist))
			buf[4] = b2u(v.Active)
		},
		Get: func(buf []byte, v *SSSPVertex) {
			v.Dist = math.Float32frombits(binary.LittleEndian.Uint32(buf))
			v.Active = buf[4] != 0
		},
	}
}

// UpdateCodec implements gas.Program.
func (*SSSP) UpdateCodec() gas.Codec[float32] { return gas.Float32Codec() }

// AccumBytes implements gas.Program.
func (*SSSP) AccumBytes() int { return 4 }

// Combine implements gas.Combiner: competing distance proposals keep the
// minimum.
func (*SSSP) Combine(a, b float32) float32 { return min(a, b) }
