package drive

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/partition"
	"chaos/internal/rmat"
)

// TestSlabClasses: class sizes grow strictly, a slab asked for n holds n
// and at most a quarter more, and a class-sized slab files under its own
// class again.
func TestSlabClasses(t *testing.T) {
	for c := 1; c < slabClasses; c++ {
		if slabSize(c) <= slabSize(c-1) {
			t.Fatalf("class %d holds %d records, class %d holds %d", c, slabSize(c), c-1, slabSize(c-1))
		}
		if got := slabClassOf(slabSize(c)); got != c {
			t.Fatalf("a %d-record slab files under class %d, want %d", slabSize(c), got, c)
		}
	}
	for n := 0; n < 1<<16; n++ {
		size := slabSize(slabClassFor(n))
		if size < n || size > max(n+n/4, minSlab) {
			t.Fatalf("asked for %d records, got a class of %d", n, size)
		}
		if n >= minSlab && slabSize(slabClassOf(n)) > n {
			t.Fatalf("a %d-record slab files under a class of %d", n, slabSize(slabClassOf(n)))
		}
	}
}

// sameBacking reports whether two slabs share their backing array.
func sameBacking[U any](a, b []UpdRec[U]) bool {
	return cap(a) > 0 && cap(a) == cap(b) && &a[:1][0] == &b[:1][0]
}

// TestArenaRoundTrip: a released slab is the next one grabbed at its size
// — whatever garbage collections run in between — and an outgrown slab
// comes back to the arena instead of being abandoned.
func TestArenaRoundTrip(t *testing.T) {
	k := testKernel(t, 2)
	slab := k.GrabRecs(1000)
	if len(slab) != 0 || cap(slab) < 1000 {
		t.Fatalf("GrabRecs(1000): len %d cap %d", len(slab), cap(slab))
	}
	k.ReleaseRecs(append(slab, chunkOf(0, 10)...))
	again := k.GrabRecs(1000)
	if !sameBacking(slab, again) || len(again) != 0 {
		t.Fatalf("GrabRecs after ReleaseRecs: a different slab (cap %d, was %d) or not empty (len %d)", cap(again), cap(slab), len(again))
	}

	full := append(again, chunkOf(7, cap(again))...)
	grown := k.regrowRecs(full, len(full)+1)
	if cap(grown) <= cap(full) || !slices.Equal(grown, chunkOf(7, len(full))) {
		t.Fatalf("regrowRecs: cap %d -> %d, contents kept: %v", cap(full), cap(grown), slices.Equal(grown, chunkOf(7, len(full))))
	}
	if out := k.arena.inUse; out != int64(cap(grown)) {
		t.Fatalf("after growth: %d records out, want the grown slab's %d", out, cap(grown))
	}
	if back := k.GrabRecs(cap(full)); !sameBacking(back, full) {
		t.Fatal("the outgrown slab did not return to the arena")
	}

	// DecodeUpdateChunk grows the same way.
	data := k.AppendRecs(nil, chunkOf(3, 100))
	small := k.GrabRecs(8)
	recs := k.DecodeUpdateChunk(small, data)
	if !slices.Equal(recs, chunkOf(3, 100)) {
		t.Fatal("DecodeUpdateChunk into a short slab lost records")
	}
	if back := k.GrabRecs(8); !sameBacking(back, small) {
		t.Fatal("DecodeUpdateChunk abandoned the slab it outgrew")
	}
}

// TestArenaTrim: a decision point keeps, per class, up to twice as many
// slabs as the finished iteration had in use at once and drops exactly
// the rest.
func TestArenaTrim(t *testing.T) {
	k := testKernel(t, 2)
	a := &k.arena
	iteration := func(big, small int) {
		var held [][]UpdRec[float32]
		for i := 0; i < big; i++ {
			held = append(held, a.grab(4096))
		}
		for i := 0; i < small; i++ {
			held = append(held, a.grab(64))
		}
		for _, s := range held {
			a.release(s)
		}
	}
	expect := func(when string, big, small int) {
		t.Helper()
		if got := [2]int{len(a.free[slabClassFor(4096)]), len(a.free[slabClassFor(64)])}; got != [2]int{big, small} {
			t.Fatalf("%s: %d and %d slabs kept, want %d and %d", when, got[0], got[1], big, small)
		}
	}

	iteration(6, 3)
	if a.highWater != 6*4096+3*64 || a.inUse != 0 {
		t.Fatalf("a 6+3 iteration: high water %d with %d out, want %d and nothing out", a.highWater, a.inUse, 6*4096+3*64)
	}
	a.trim()
	expect("after a 6+3 iteration", 6, 3)
	iteration(2, 3)
	a.trim()
	expect("after a 2+3 iteration", 4, 3)
	// A slab still out at the decision point counts toward what is kept.
	out := a.grab(4096)
	iteration(1, 0)
	a.trim()
	a.release(out)
	expect("after a 2+0 iteration with one slab out", 4, 0)
	iteration(1, 0)
	a.trim()
	expect("after a 1+0 iteration", 2, 0)
}

// TestArenaConcurrent: grabs and releases from 8 goroutines never hand
// one slab to two holders (and, under -race, never race).
func TestArenaConcurrent(t *testing.T) {
	k := testKernel(t, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var held [][]UpdRec[float32]
			for i := 0; i < 2000; i++ {
				if len(held) < 4 && rng.Intn(2) == 0 {
					s := k.GrabRecs(1 + rng.Intn(300))
					s = s[:cap(s)]
					for j := range s {
						s[j].Off = uint32(g)
					}
					held = append(held, s)
					continue
				}
				if len(held) == 0 {
					continue
				}
				s := held[len(held)-1]
				held = held[:len(held)-1]
				for j := range s {
					if s[j].Off != uint32(g) {
						t.Errorf("goroutine %d: its slab was written by goroutine %d", g, s[j].Off)
						return
					}
				}
				k.ReleaseRecs(s)
			}
			for _, s := range held {
				k.ReleaseRecs(s)
			}
		}(g)
	}
	wg.Wait()
	if out := k.arena.inUse; out != 0 {
		t.Errorf("everything released, %d records still counted out", out)
	}
}

// scatterWhole scatters each partition's edges as one chunk — what a
// 4 MiB ChunkBytes makes of a small graph — and returns the outputs.
func scatterWhole[V, U, A any](k *Kernel[V, U, A], verts [][]V, bins [][]graph.Edge) []ScatterOut[U] {
	outs := make([]ScatterOut[U], len(bins))
	for p, es := range bins {
		k.ScatterChunkTyped(0, p, verts[p], k.EdgeFmt.EncodeEdges(nil, es), &outs[p])
	}
	return outs
}

// TestSlabSizeFollowsData is TestWireBackingFollowsData for records: slab
// sizes are learned from what a (source, destination) pair produced,
// never from the chunk size, so a kernel whose chunks a small graph cannot
// fill holds at most twice the records it carries while it learns, and a
// class's rounding more once it has.
func TestSlabSizeFollowsData(t *testing.T) {
	const scale, np = 10, 16
	gen := rmat.New(scale, 9)
	layout, err := partition.FixedLayout(gen.NumVertices(), np, np)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(&algorithms.PageRank{Iterations: 2}, layout)
	k.ChunkBytes = 4 << 20
	bins := layout.BinEdges(gen.Generate())
	verts := make([][]algorithms.PRVertex, np)
	for p := range verts {
		verts[p] = make([]algorithms.PRVertex, layout.Size(p))
		for i := range verts[p] {
			verts[p][i] = algorithms.PRVertex{Rank: 1, Degree: 1}
		}
	}
	for iter, slack := range []func(n int) int{
		func(n int) int { return 2 * n },   // learning: grown by halves
		func(n int) int { return n + n/4 }, // learned: the class that holds n
	} {
		outs := scatterWhole(k, verts, bins)
		var carried, bound int64
		for p := range outs {
			for _, recs := range outs[p].Typed {
				if len(recs) > 0 {
					carried += int64(len(recs))
					bound += int64(max(slack(len(recs)), minSlab))
				}
			}
		}
		if out := k.arena.inUse; carried != int64(gen.NumEdges()) || out > bound {
			t.Errorf("iteration %d: %d records carried in %d records of slabs, want at most %d", iter, carried, out, bound)
		}
		for p := range outs {
			k.ReleaseScatterOut(&outs[p])
		}
		k.NewDecider().Decide(iter)
	}
}

// absUpd is an update as the program emitted it: absolute destination.
type absUpd[U any] struct {
	Dst graph.VertexID
	Val U
}

// referenceScatter is the scatter loop written the plain way: one
// Format.Decode and one division per edge, absolute destinations out.
func referenceScatter[V, U, A any](k *Kernel[V, U, A], part int, verts []V, data []byte) [][]absUpd[U] {
	lo, _ := k.Layout.Range(part)
	size := k.EdgeFmt.EdgeSize()
	want := make([][]absUpd[U], k.Layout.NumPartitions)
	for i := 0; i < len(data)/size; i++ {
		e := k.EdgeFmt.Decode(data[i*size:])
		dst, val, emit := k.Prog.Scatter(0, e, &verts[e.Src-lo])
		if !emit {
			continue
		}
		tp := int(min(uint64(dst)/k.Layout.PerPartition, uint64(k.Layout.NumPartitions-1)))
		want[tp] = append(want[tp], absUpd[U]{dst, val})
	}
	return want
}

// absolute is partition tp's records with their destinations made
// absolute again.
func absolute[U any](layout *partition.Layout, tp int, recs []UpdRec[U]) []absUpd[U] {
	lo, _ := layout.Range(tp)
	var abs []absUpd[U]
	for _, r := range recs {
		abs = append(abs, absUpd[U]{lo + graph.VertexID(r.Off), r.Val})
	}
	return abs
}

// checkScatterTwins runs both forms of the scatter kernel over one chunk
// of random edges out of partition part and compares what each emitted,
// per destination partition, with referenceScatter.
func checkScatterTwins[V, U comparable, A any](t *testing.T, prog gas.Program[V, U, A], layout *partition.Layout, part int, verts []V) {
	t.Helper()
	k := NewKernel(prog, layout)
	lo, _ := layout.Range(part)
	rng := rand.New(rand.NewSource(11))
	edges := make([]graph.Edge, 3*edgeBlock+17) // whole blocks and a tail
	for i := range edges {
		edges[i] = graph.Edge{
			Src:    lo + graph.VertexID(rng.Intn(len(verts))),
			Dst:    graph.VertexID(rng.Uint64() % layout.NumVertices),
			Weight: rng.Float32(),
		}
	}
	data := k.EdgeFmt.EncodeEdges(nil, edges)
	want := referenceScatter(k, part, verts, data)
	// The same chunk at an odd address, which no kernel reads in place.
	odd := make([]byte, len(data)+1)[1:]
	copy(odd, data)
	if readsInPlace(odd) {
		t.Fatalf("a chunk at an odd address reads in place")
	}

	for _, chunk := range [][]byte{data, odd} {
		var typed, wire ScatterOut[U]
		k.ScatterChunkTyped(0, part, verts, chunk, &typed)
		k.ScatterChunk(0, part, verts, chunk, &wire)
		if typed.N != len(edges) || wire.N != len(edges) {
			t.Fatalf("%v: scattered %d and %d edges of %d", k.EdgeFmt, typed.N, wire.N, len(edges))
		}
		for tp := range want {
			if !slices.Equal(absolute(layout, tp, typed.Typed[tp]), want[tp]) {
				t.Errorf("%v, in place %v: ScatterChunkTyped's updates for partition %d differ from the reference loop's", k.EdgeFmt, readsInPlace(chunk), tp)
			}
			if got := k.DecodeUpdateChunk(nil, wire.Updates[tp]); !slices.Equal(absolute(layout, tp, got), want[tp]) {
				t.Errorf("%v, in place %v: ScatterChunk's updates for partition %d differ from the reference loop's", k.EdgeFmt, readsInPlace(chunk), tp)
			}
		}
	}
}

// TestScatterMatchesReferenceLoop: the division-free edge loop emits, as
// typed records and as ScatterChunk's bytes, exactly the (absolute
// destination, payload) sequence a loop over Format.Decode, Scatter and a
// division emits — over a weighted compact layout, a non-compact one
// (8-byte IDs, destinations on both sides of 2^32) and a four-partition
// one, none with a power-of-two width; and each chunk both where it was
// encoded, which compact chunks are read in place from, and at an odd
// address, from which every chunk is decoded.
func TestScatterMatchesReferenceLoop(t *testing.T) {
	weighted, err := partition.FixedLayout(3000, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	sssp := make([]algorithms.SSSPVertex, weighted.Size(2))
	for i := range sssp {
		sssp[i] = algorithms.SSSPVertex{Dist: float32(i), Active: i%3 != 0}
	}
	checkScatterTwins(t, &algorithms.SSSP{}, weighted, 2, sssp)

	wide, err := partition.FixedLayout(1<<33+5, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The partition is 2^30 vertices wide; the edges leave its first 500.
	wcc := make([]algorithms.WCCVertex, 500)
	for i := range wcc {
		wcc[i] = algorithms.WCCVertex{Label: uint32(i), Active: i%4 != 0}
	}
	checkScatterTwins(t, &algorithms.WCC{}, wide, 3, wcc)

	four, err := partition.FixedLayout(3001, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	pr := make([]algorithms.PRVertex, four.Size(1))
	for i := range pr {
		pr[i] = algorithms.PRVertex{Rank: float32(i), Degree: uint32(1 + i%5)}
	}
	checkScatterTwins(t, &algorithms.PageRank{}, four, 1, pr)
}
