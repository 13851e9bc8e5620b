package drive

import (
	"bytes"
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

// perRecord is k with its codec's bulk forms removed.
func perRecord[V, U, A any](k *Kernel[V, U, A]) *Kernel[V, U, A] {
	plain := NewKernel(k.Prog, k.Layout)
	plain.UpdCodec.PutRecs, plain.UpdCodec.GetRecs = nil, nil
	return plain
}

// checkBulkCodec: AppendRecs through the codec's PutRecs writes exactly
// the bytes of the AppendUpdate loop, and DecodeUpdateChunk through
// GetRecs reads them back as the DecodeUpdate loop does.
func checkBulkCodec[V, U comparable, A any](t *testing.T, k *Kernel[V, U, A], val func(*rand.Rand) U) {
	t.Helper()
	if k.UpdCodec.PutRecs == nil || k.UpdCodec.GetRecs == nil {
		t.Fatalf("%s's update codec has no bulk forms", k.Prog.Name())
	}
	plain := perRecord(k)
	rng := rand.New(rand.NewSource(5))
	recs := make([]UpdRec[U], 1000)
	for i := range recs {
		recs[i] = UpdRec[U]{Off: rng.Uint32(), Val: val(rng)}
	}
	prefix := []byte("kept")
	got := k.AppendRecs(bytes.Clone(prefix), recs)
	want := plain.AppendRecs(bytes.Clone(prefix), recs)
	if len(got) != len(prefix)+len(recs)*k.UpdBytes || !bytes.Equal(got, want) {
		t.Fatalf("%s, %d-byte IDs: bulk encode differs from the per-record loop's", k.Prog.Name(), k.IDBytes)
	}
	data := want[len(prefix):]
	for name, dec := range map[string]*Kernel[V, U, A]{"bulk": k, "per-record": plain} {
		back := dec.DecodeUpdateChunk(nil, data)
		if len(back) != len(recs) {
			t.Fatalf("%s, %d-byte IDs: %s decode returned %d records of %d", k.Prog.Name(), k.IDBytes, name, len(back), len(recs))
		}
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("%s, %d-byte IDs: %s decode of record %d is %+v, want %+v", k.Prog.Name(), k.IDBytes, name, i, back[i], recs[i])
			}
		}
	}
}

// TestBulkCodecMatchesPerRecord covers both shared scalar codecs at both
// ID widths.
func TestBulkCodecMatchesPerRecord(t *testing.T) {
	for _, n := range []uint64{1 << 10, 1<<33 + 5} {
		layout, err := partition.FixedLayout(n, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkBulkCodec(t, NewKernel(&algorithms.PageRank{}, layout), func(r *rand.Rand) float32 { return r.Float32() - 0.5 })
		checkBulkCodec(t, NewKernel(&algorithms.WCC{}, layout), func(r *rand.Rand) uint32 { return r.Uint32() })
	}
}

// FuzzDecodeUpdateChunk: arbitrary bytes through the bulk and the
// per-record decode never panic, yield the same records, drop a trailing
// partial record the same way, and encode back to the bytes consumed (in
// an 8-byte ID field, to its low half: Off is 32 bits).
func FuzzDecodeUpdateChunk(f *testing.F) {
	type pair struct {
		bulk, plain *Kernel[algorithms.PRVertex, float32, float64]
	}
	kernels := make(map[bool]pair)
	for _, n := range []uint64{1 << 10, 1<<33 + 5} {
		layout, err := partition.FixedLayout(n, 1, 4)
		if err != nil {
			f.Fatal(err)
		}
		k := NewKernel(&algorithms.PageRank{}, layout)
		kernels[k.IDBytes == 8] = pair{k, perRecord(k)}
		seed := k.AppendRecs(nil, chunkOf(7, 9))
		f.Add(seed, k.IDBytes == 8)
		f.Add(seed[:len(seed)-3], k.IDBytes == 8)
	}
	f.Fuzz(func(t *testing.T, data []byte, wideIDs bool) {
		k := kernels[wideIDs].bulk
		bulk := k.DecodeUpdateChunk(nil, data)
		plain := kernels[wideIDs].plain.DecodeUpdateChunk(nil, data)
		if len(bulk) != len(data)/k.UpdBytes || len(plain) != len(bulk) {
			t.Fatalf("%d bytes of %d-byte records: bulk decoded %d, per-record %d", len(data), k.UpdBytes, len(bulk), len(plain))
		}
		for i := range bulk {
			if bulk[i].Off != plain[i].Off || math.Float32bits(bulk[i].Val) != math.Float32bits(plain[i].Val) {
				t.Fatalf("record %d: bulk %+v, per-record %+v", i, bulk[i], plain[i])
			}
		}
		consumed := bytes.Clone(data[:len(bulk)*k.UpdBytes])
		if wideIDs {
			for i := range bulk {
				clear(consumed[i*k.UpdBytes+4 : i*k.UpdBytes+8])
			}
		}
		if again := k.AppendRecs(nil, bulk); !bytes.Equal(again, consumed) {
			t.Fatalf("re-encoding %d decoded records does not give back the bytes they came from", len(bulk))
		}
	})
}
