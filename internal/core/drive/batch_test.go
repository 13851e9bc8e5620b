package drive

import (
	"math"
	"math/rand"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/partition"
)

// checkBatchMatchesPerRecord holds a program's batch forms to its
// per-record definitions: over random chunks out of partition part, the
// kernel with the batch forms and the same kernel without them emit the
// same record sequence per destination partition and fold it into the
// same accumulators, bit for bit. verts should mix inactive sources and
// non-finite state; bitsU and bitsA expose a payload's and an
// accumulator's bits, so that NaN equals NaN.
func checkBatchMatchesPerRecord[V, U, A any](t *testing.T, prog gas.Program[V, U, A], layout *partition.Layout, part int,
	verts []V, bitsU func(U) uint64, bitsA func(A) uint64) {
	t.Helper()
	batch := NewKernel(prog, layout)
	if batch.batchScatter == nil || batch.batchGather == nil {
		t.Fatalf("%s has no batch forms", prog.Name())
	}
	plain := NewKernel(prog, layout)
	plain.batchScatter, plain.batchGather = nil, nil

	lo, _ := layout.Range(part)
	rng := rand.New(rand.NewSource(int64(part) + 3))
	weights := []float32{0, 1.5, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	// Chunk sizes around the edge block's boundary, and several blocks.
	for _, n := range []int{0, 1, edgeBlock - 1, edgeBlock, edgeBlock + 1, 3*edgeBlock + 17} {
		edges := make([]graph.Edge, n)
		for i := range edges {
			edges[i] = graph.Edge{
				Src:    lo + graph.VertexID(rng.Intn(len(verts))),
				Dst:    graph.VertexID(rng.Uint64() % layout.NumVertices),
				Weight: weights[rng.Intn(len(weights))],
			}
		}
		data := batch.EdgeFmt.EncodeEdges(nil, edges)
		var got, want ScatterOut[U]
		batch.ScatterChunkTyped(1, part, verts, data, &got)
		plain.ScatterChunkTyped(1, part, verts, data, &want)
		for tp := range want.Typed {
			g, w := got.Typed[tp], want.Typed[tp]
			if len(g) != len(w) {
				t.Fatalf("%s, %d edges: %d records for partition %d, per-record scatter emits %d", prog.Name(), n, len(g), tp, len(w))
			}
			for i := range w {
				if g[i].Off != w[i].Off || bitsU(g[i].Val) != bitsU(w[i].Val) {
					t.Fatalf("%s, %d edges: record %d for partition %d is %+v, per-record scatter emits %+v", prog.Name(), n, i, tp, g[i], w[i])
				}
			}
			// Fold what was emitted into partition tp, whose vertex
			// state is verts again when it is as wide as part.
			if uint64(len(verts)) < layout.Size(tp) {
				continue
			}
			gAcc := batch.ResetAccums(make([]A, layout.Size(tp)))
			wAcc := plain.ResetAccums(make([]A, layout.Size(tp)))
			batch.FoldUpdates(verts, gAcc, g)
			plain.FoldUpdates(verts, wAcc, w)
			for i := range wAcc {
				if bitsA(gAcc[i]) != bitsA(wAcc[i]) {
					t.Fatalf("%s, %d edges: accumulator %d of partition %d folds to %v, per-record gather to %v", prog.Name(), n, i, tp, gAcc[i], wAcc[i])
				}
			}
		}
		batch.ReleaseScatterOut(&got)
		plain.ReleaseScatterOut(&want)
	}
}

// TestBatchMatchesPerRecord runs every program with batch forms through
// checkBatchMatchesPerRecord: unweighted and weighted compact formats,
// and for one of them the non-compact format of a graph past 2^32
// vertices.
func TestBatchMatchesPerRecord(t *testing.T) {
	u32 := func(v uint32) uint64 { return uint64(v) }
	f32 := func(v float32) uint64 { return uint64(math.Float32bits(v)) }
	f64 := math.Float64bits
	nonFinite := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), algorithms.Inf}

	compact, err := partition.FixedLayout(3001, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := int(compact.Size(1))

	pr := make([]algorithms.PRVertex, n)
	for i := range pr {
		pr[i] = algorithms.PRVertex{Rank: float32(i) / 7, Degree: uint32(i % 4)} // degree 0: ±Inf and NaN payloads
	}
	checkBatchMatchesPerRecord(t, &algorithms.PageRank{}, compact, 1, pr, f32, f64)

	wcc := make([]algorithms.WCCVertex, n)
	for i := range wcc {
		wcc[i] = algorithms.WCCVertex{Label: uint32(i * 3), Active: i%3 != 0}
	}
	checkBatchMatchesPerRecord(t, &algorithms.WCC{}, compact, 1, wcc, u32, u32)

	bfs := make([]algorithms.BFSVertex, n)
	for i := range bfs {
		bfs[i] = algorithms.BFSVertex{Level: uint32(i % 9), Active: i%4 != 0}
	}
	checkBatchMatchesPerRecord(t, &algorithms.BFS{}, compact, 1, bfs, u32, u32)

	sssp := make([]algorithms.SSSPVertex, n)
	for i := range sssp {
		sssp[i] = algorithms.SSSPVertex{Dist: float32(i), Active: i%5 != 0}
		if i%11 == 0 {
			sssp[i].Dist = nonFinite[i/11%len(nonFinite)]
		}
	}
	checkBatchMatchesPerRecord(t, &algorithms.SSSP{}, compact, 1, sssp, f32, f32)

	// 8-byte edge IDs; the edges leave the first 500 vertices of a
	// partition 2^30 wide.
	wide, err := partition.FixedLayout(1<<33+5, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkBatchMatchesPerRecord(t, &algorithms.WCC{}, wide, 3, wcc[:500], u32, u32)
}
