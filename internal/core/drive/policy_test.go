package drive

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/graph"
	"chaos/internal/partition"
)

// planPR plans a PageRank run over n vertices on two machines, two
// partitions each (8-byte vertex records).
func planPR(t *testing.T, n uint64, p Params) *Kernel[algorithms.PRVertex, float32, float64] {
	t.Helper()
	p.Machines = 2
	p.MemBudget = int64(n)*8/4 + 8
	k, err := Plan(p, &algorithms.PageRank{Iterations: 10}, graph.Edges([]graph.Edge{{Src: 0, Dst: 1}}), n)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestPlanRejectsWhatTheProgramCannotDo(t *testing.T) {
	if _, err := Plan(Params{Machines: 1}, &algorithms.PageRank{}, graph.Edges(nil), 0); err == nil {
		t.Error("empty graph planned")
	}
	_, err := Plan(Params{Machines: 1, RewriteEdges: true}, &algorithms.PageRank{}, graph.Edges(nil), 10)
	if err == nil {
		t.Error("PageRank is no EdgeRewriter, yet the plan accepted RewriteEdges")
	}
	k, err := Plan(Params{Machines: 1, CombineUpdates: true}, &algorithms.PageRank{}, graph.Edges([]graph.Edge{{Src: 3, Dst: 1}}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.Combiner == nil || k.Layout.NumVertices != 4 {
		t.Errorf("combiner %v, %d vertices inferred; want set, 4", k.Combiner, k.Layout.NumVertices)
	}
	// UpdRec.Off addresses 2^32 vertices of one partition, no more.
	if k, err = Plan(Params{Machines: 2}, &algorithms.PageRank{}, graph.Edges(nil), 1<<33); err != nil || k.Layout.PerPartition != 1<<32 {
		t.Errorf("2^33 vertices on two machines: %v; want two partitions of 2^32", err)
	}
	if _, err = Plan(Params{Machines: 2}, &algorithms.PageRank{}, graph.Edges(nil), 1<<33+2); err == nil || !strings.Contains(err.Error(), "2^32") {
		t.Errorf("partitions of 2^32+1 vertices planned (error: %v)", err)
	}
}

func TestVertexChunkGeometry(t *testing.T) {
	k := planPR(t, 1000, Params{VertexChunkBytes: 64}) // 8 vertices per chunk
	if got := k.VerticesPerChunk(); got != 8 {
		t.Errorf("VerticesPerChunk = %d, want 8", got)
	}
	for part := 0; part < k.Layout.NumPartitions; part++ {
		size := k.Layout.Size(part)
		if got, want := k.VertexChunks(part), int((size+7)/8); got != want {
			t.Errorf("partition %d (%d vertices): %d chunks, want %d", part, size, got, want)
		}
		verts := k.InitVertices(part, nil)
		chunks := k.EncodeVertices(verts)
		if len(chunks) != k.VertexChunks(part) {
			t.Errorf("partition %d: encoded into %d chunks, geometry says %d", part, len(chunks), k.VertexChunks(part))
		}
		var total int64
		for idx, c := range chunks {
			total += int64(len(c))
			if len(c) != k.VertexChunkLen(part, idx) {
				t.Errorf("partition %d chunk %d: %d encoded bytes, VertexChunkLen says %d", part, idx, len(c), k.VertexChunkLen(part, idx))
			}
		}
		back := make([]algorithms.PRVertex, len(verts))
		k.RestoreVertices(part, back, chunks)
		if total != k.VertexSetBytes(part) || !reflect.DeepEqual(back, verts) {
			t.Errorf("partition %d: %d encoded bytes (want %d), round trip equal: %v",
				part, total, k.VertexSetBytes(part), reflect.DeepEqual(back, verts))
		}
		if len(chunks) > 1 {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("partition %d: restoring from a chunk short did not panic", part)
					}
				}()
				k.RestoreVertices(part, back, chunks[1:])
			}()
		}
	}
	if k.VertexChunks(0) == 0 {
		t.Error("no vertex chunks at all")
	}
}

func TestCollectVertices(t *testing.T) {
	k := planPR(t, 1000, Params{})
	verts := make([][]algorithms.PRVertex, k.Layout.NumPartitions)
	for p := range verts {
		verts[p] = k.InitVertices(p, nil)
		lo, _ := k.Layout.Range(p)
		for i := range verts[p] {
			verts[p][i].Rank = float32(lo) + float32(i)
		}
	}
	values := k.CollectVertices(verts)
	if uint64(len(values)) != k.Layout.NumVertices {
		t.Fatalf("%d values for %d vertices", len(values), k.Layout.NumVertices)
	}
	for v, val := range values {
		if val.Rank != float32(v) {
			t.Fatalf("vertex %d holds partition value %g", v, val.Rank)
		}
	}
}

// TestDecider walks the decision point through scripted iterations. Each
// step names what happened during the iteration (vertices changed,
// whether a shadow copy was staged, whether Interrupt fires) and what
// the decision point must answer.
func TestDecider(t *testing.T) {
	type step struct {
		iter      int
		changed   uint64
		stage     byte // non-zero: stage this marker as partition 0's shadow copy
		interrupt bool

		done, interrupted bool
		rollbackTo        int
		committed         byte // partition 0's committed marker afterwards (0: none)
	}
	for _, tc := range []struct {
		name  string
		p     Params
		steps []step
	}{
		{"PageRank converges at its own bound, not before", Params{MaxIterations: 100}, []step{
			{iter: 0, changed: 5, rollbackTo: -1},
			{iter: 8, changed: 0, rollbackTo: -1},
			{iter: 9, changed: 5, done: true, rollbackTo: -1},
		}},
		{"MaxIterations caps the loop", Params{MaxIterations: 3}, []step{
			{iter: 1, changed: 5, rollbackTo: -1},
			{iter: 2, changed: 5, done: true, rollbackTo: -1},
		}},
		{"interrupt sets done and interrupted", Params{MaxIterations: 100}, []step{
			{iter: 0, changed: 5, rollbackTo: -1},
			{iter: 1, changed: 5, interrupt: true, done: true, interrupted: true, rollbackTo: -1},
		}},
		{"commit only on due iterations", Params{MaxIterations: 100, CheckpointEvery: 2}, []step{
			{iter: 0, changed: 5, stage: 'a', rollbackTo: -1}, // staged but not due: stays pending
			{iter: 1, changed: 5, stage: 'b', rollbackTo: -1, committed: 'b'},
			{iter: 2, changed: 5, rollbackTo: -1, committed: 'b'},
			{iter: 3, changed: 5, stage: 'c', rollbackTo: -1, committed: 'c'},
		}},
		{"failure fires once, only after a commit, to the last commit", Params{MaxIterations: 100, CheckpointEvery: 3, FailAtIteration: 2}, []step{
			{iter: 0, changed: 5, rollbackTo: -1},
			{iter: 1, changed: 5, rollbackTo: -1}, // due to fail, nothing committed yet
			{iter: 2, changed: 5, stage: 'a', rollbackTo: 2, committed: 'a'},
			{iter: 3, changed: 5, rollbackTo: -1, committed: 'a'}, // already failed once
			{iter: 5, changed: 5, stage: 'b', rollbackTo: -1, committed: 'b'},
		}},
		{"a finished run does not fail", Params{MaxIterations: 2, CheckpointEvery: 1, FailAtIteration: 2}, []step{
			{iter: 0, changed: 5, stage: 'a', rollbackTo: -1, committed: 'a'},
			{iter: 1, changed: 5, stage: 'b', done: true, rollbackTo: -1, committed: 'b'},
		}},
	} {
		fire := false
		tc.p.Interrupt = func() bool { return fire }
		d := planPR(t, 100, tc.p).NewDecider()
		for _, s := range tc.steps {
			fire = s.interrupt
			d.Changed.Add(s.changed)
			if s.stage != 0 {
				d.Stage(0, [][]byte{{s.stage}})
			}
			got := d.Decide(s.iter)
			if got != (Decision{Done: s.done, RollbackTo: s.rollbackTo}) || d.Interrupted() != s.interrupted {
				t.Errorf("%s, iter %d: %+v interrupted=%v, want done=%v rollbackTo=%d interrupted=%v",
					tc.name, s.iter, got, d.Interrupted(), s.done, s.rollbackTo, s.interrupted)
			}
			var committed byte
			if c := d.Checkpoint(0); c != nil {
				committed = c[0][0]
			}
			if committed != s.committed {
				t.Errorf("%s, iter %d: committed checkpoint %q, want %q", tc.name, s.iter, committed, s.committed)
			}
			if left := d.Changed.Load(); left != 0 {
				t.Errorf("%s, iter %d: changed counter = %d after Decide, want 0", tc.name, s.iter, left)
			}
		}
	}
}

// TestCombineBuf pins the combiner buffer's contract: merges go through
// Combine, a destination partition ships when it holds a chunk's worth of
// distinct vertices, Flush ships the rest in ascending partition order,
// and every shipped chunk is sorted by destination, each record carrying
// its destination as an offset into the shipped partition.
func TestCombineBuf(t *testing.T) {
	k := planPR(t, 100, Params{CombineUpdates: true})
	k.ChunkBytes = 2 * k.UpdBytes // two distinct destinations make a chunk
	b := k.NewCombineBuf()
	type shipped struct {
		tp   int
		recs []UpdRec[float32]
	}
	var got []shipped
	ship := func(tp int, recs []UpdRec[float32]) {
		got = append(got, shipped{tp, append([]UpdRec[float32](nil), recs...)})
		k.ReleaseRecs(recs)
	}
	// m lists one destination's records as (offset, value) pairs; each
	// partition holds 25 vertices.
	m := func(kv ...float32) []UpdRec[float32] {
		var recs []UpdRec[float32]
		for i := 0; i < len(kv); i += 2 {
			recs = append(recs, UpdRec[float32]{Off: uint32(kv[i]), Val: kv[i+1]})
		}
		return recs
	}
	b.Add([][]UpdRec[float32]{nil, m(5, 1), nil, m(5, 1)}, ship)
	if len(got) != 0 {
		t.Fatalf("shipped %v below the threshold", got)
	}
	b.Add([][]UpdRec[float32]{nil, m(5, 2, 1, 4), nil, nil}, ship)
	b.Add([][]UpdRec[float32]{m(3, 1), nil, nil, nil}, ship)
	b.Flush(ship)
	b.Flush(ship) // nothing left
	want := []shipped{
		{1, []UpdRec[float32]{{Off: 1, Val: 4}, {Off: 5, Val: 3}}}, // vertices 26 and 30 of [25, 50)
		{0, []UpdRec[float32]{{Off: 3, Val: 1}}},
		{3, []UpdRec[float32]{{Off: 5, Val: 1}}}, // vertex 80 of [75, 100)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shipped %v, want %v", got, want)
	}

	// A chunk's records merge among themselves before the buffer's value
	// joins them: 2^24 + (1 + 1) is 2^24 + 2 in float32, where folding
	// each record into the buffer would round (2^24 + 1) + 1 to 2^24.
	got = nil
	if n := b.Add([][]UpdRec[float32]{m(7, 1<<24)}, ship); n != 1 {
		t.Errorf("merged %d records, want 1", n)
	}
	if n := b.Add([][]UpdRec[float32]{m(7, 1, 7, 1)}, ship); n != 2 {
		t.Errorf("merged %d records, want 2", n)
	}
	b.Flush(ship)
	if want := []shipped{{0, []UpdRec[float32]{{Off: 7, Val: 1<<24 + 2}}}}; !reflect.DeepEqual(got, want) {
		t.Errorf("shipped %v, want the chunk's partial sum first: %v", got, want)
	}
}

// TestLocatorMatchesLayout: the kernels' copy of Layout.Of answers as Of
// does, and names the partition's first vertex as Range does — on
// layouts Of multiplies by a reciprocal for, one a width of 1 makes it
// divide for, IDs on both sides of 2^32, a Layout literal without a
// reciprocal, and IDs past the last vertex, which clamp.
func TestLocatorMatchesLayout(t *testing.T) {
	var layouts []*partition.Layout
	for _, c := range []struct {
		n     uint64
		m, np int
	}{{3001, 2, 4}, {3000, 1, 7}, {1<<33 + 5, 1, 6}, {8, 2, 8}, {1 << 40, 4, 4}} {
		l, err := partition.FixedLayout(c.n, c.m, c.np)
		if err != nil {
			t.Fatal(err)
		}
		layouts = append(layouts, l)
	}
	layouts = append(layouts, &partition.Layout{NumVertices: 1000, NumPartitions: 3, NumMachines: 1, PerPartition: 334})
	for _, l := range layouts {
		loc := newLocator(l)
		ids := []graph.VertexID{0, 1, math.MaxUint32, 1 << 32, math.MaxUint64, graph.VertexID(l.NumVertices - 1), graph.VertexID(l.NumVertices)}
		for p := 0; p < l.NumPartitions; p++ {
			lo, hi := l.Range(p)
			ids = append(ids, lo, max(hi, 1)-1, hi)
		}
		for _, v := range ids {
			p, lo := loc.of(v)
			if want, _ := l.Range(l.Of(v)); p != l.Of(v) || lo != uint64(want) {
				t.Errorf("%v: vertex %d in partition %d from %d, Layout says %d from %d", l, v, p, lo, l.Of(v), want)
			}
		}
	}
}
