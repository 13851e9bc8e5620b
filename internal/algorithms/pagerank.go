package algorithms

import (
	"encoding/binary"
	"math"

	"chaos/internal/gas"
	"chaos/internal/graph"
)

// PRVertex is PageRank's per-vertex state.
type PRVertex struct {
	Rank   float32
	Degree uint32
}

// PageRank runs the fixed-iteration PageRank of Figure 2: scatter
// rank/degree along out-edges, gather the sum, apply
// rank = 0.15 + 0.85 * sum. Out-degrees are counted during pre-processing.
type PageRank struct {
	// Iterations is the number of rounds (the paper's capacity experiment
	// runs 5; that is the default).
	Iterations int
}

// Name implements gas.Program.
func (*PageRank) Name() string { return "PR" }

// Weighted implements gas.Program.
func (*PageRank) Weighted() bool { return false }

// NeedsDegrees implements gas.Program.
func (*PageRank) NeedsDegrees() bool { return true }

func (pr *PageRank) iters() int {
	if pr.Iterations > 0 {
		return pr.Iterations
	}
	return 5
}

// Init implements gas.Program.
func (*PageRank) Init(_ graph.VertexID, v *PRVertex, outDegree uint32) {
	v.Rank = 1
	v.Degree = outDegree
}

// Scatter implements gas.Program.
func (*PageRank) Scatter(_ int, e graph.Edge, src *PRVertex) (graph.VertexID, float32, bool) {
	return e.Dst, src.Rank / float32(src.Degree), true
}

// InitAccum implements gas.Program.
func (*PageRank) InitAccum() float64 { return 0 }

// Gather implements gas.Program.
func (*PageRank) Gather(a float64, u float32, _ *PRVertex) float64 { return a + float64(u) }

// Merge implements gas.Program.
func (*PageRank) Merge(a, b float64) float64 { return a + b }

// Apply implements gas.Program.
func (*PageRank) Apply(_ int, _ graph.VertexID, v *PRVertex, a float64) bool {
	v.Rank = 0.15 + 0.85*float32(a)
	return true
}

// ScatterBatch implements gas.BatchScatterer: Scatter, once per edge.
// Every pair is stored and only an emitted one kept, so the loop has no
// branch on the data.
func (pr *PageRank) ScatterBatch(iter int, edges []graph.CompactEdge, lo graph.VertexID, verts []PRVertex, dsts []graph.VertexID, vals []float32) int {
	n := 0
	for _, e := range edges {
		dst, val, emit := pr.Scatter(iter, e.Edge(), &verts[graph.VertexID(e.Src)-lo])
		dsts[n], vals[n] = dst, val
		if emit {
			n++
		}
	}
	return n
}

// GatherBatch implements gas.BatchGatherer: Gather, once per record.
func (pr *PageRank) GatherBatch(accums []float64, recs []gas.UpdRec[float32], verts []PRVertex) {
	for _, u := range recs {
		accums[u.Off] = pr.Gather(accums[u.Off], u.Val, &verts[u.Off])
	}
}

// Converged implements gas.Program: fixed iteration count.
func (pr *PageRank) Converged(iter int, _ uint64) bool { return iter+1 >= pr.iters() }

// VertexCodec implements gas.Program.
func (*PageRank) VertexCodec() gas.Codec[PRVertex] {
	return gas.Codec[PRVertex]{
		Bytes: 8,
		Put: func(buf []byte, v *PRVertex) {
			binary.LittleEndian.PutUint32(buf, math.Float32bits(v.Rank))
			binary.LittleEndian.PutUint32(buf[4:], v.Degree)
		},
		Get: func(buf []byte, v *PRVertex) {
			v.Rank = math.Float32frombits(binary.LittleEndian.Uint32(buf))
			v.Degree = binary.LittleEndian.Uint32(buf[4:])
		},
	}
}

// UpdateCodec implements gas.Program.
func (*PageRank) UpdateCodec() gas.Codec[float32] { return gas.Float32Codec() }

// AccumBytes implements gas.Program.
func (*PageRank) AccumBytes() int { return 8 }

// Combine implements gas.Combiner: rank contributions to the same vertex
// sum (the Pregel-style aggregation of §11.1).
func (*PageRank) Combine(a, b float32) float32 { return a + b }
