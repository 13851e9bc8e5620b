package drive

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"chaos/internal/algorithms"
	"chaos/internal/graph"
	"chaos/internal/partition"
)

func TestKernelUpdateRecordRoundTrip(t *testing.T) {
	for _, n := range []uint64{1 << 10, 1 << 33} {
		layout, err := partition.FixedLayout(n, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		k := NewKernel(&algorithms.PageRank{Iterations: 1}, layout)
		wantID := 4
		if n >= 1<<32 {
			wantID = 8
		}
		if k.IDBytes != wantID {
			t.Errorf("n=%d: IDBytes=%d, want %d", n, k.IDBytes, wantID)
		}
		// A vertex near the top of the ID space travels as (its partition,
		// its offset inside it): the offset fits 32 bits where the ID does
		// not, and the ID field keeps its §8 width.
		dst := graph.VertexID(n - 3)
		tp := layout.Of(dst)
		lo, _ := layout.Range(tp)
		in := UpdRec[float32]{Off: uint32(dst - lo), Val: 0.25}
		buf := k.AppendUpdate(nil, &in)
		if len(buf) != k.UpdBytes {
			t.Fatalf("record size %d, want %d", len(buf), k.UpdBytes)
		}
		var r UpdRec[float32]
		k.DecodeUpdate(buf, &r)
		if lo+graph.VertexID(r.Off) != dst || r.Val != in.Val {
			t.Errorf("round trip (%d, %g) -> (%d+%d, %g)", dst, in.Val, lo, r.Off, r.Val)
		}
		recs := k.DecodeUpdateChunk(nil, append(append([]byte{}, buf...), buf...))
		if len(recs) != 2 || recs[1] != in {
			t.Errorf("chunk decode got %+v", recs)
		}
	}
}

func TestSpillLimit(t *testing.T) {
	for _, tc := range []struct{ chunk, rec, want int }{
		{1024, 8, 1024},
		{1024, 12, 1032}, // smallest whole number of 12-byte records >= 1024
		{4, 8, 8},        // at least one record
	} {
		if got := SpillLimit(tc.chunk, tc.rec); got != tc.want {
			t.Errorf("SpillLimit(%d, %d) = %d, want %d", tc.chunk, tc.rec, got, tc.want)
		}
	}
}

// TestPoolChainOrder submits a chain of dependent tasks interleaved with
// independent ones and checks chained tasks observe their predecessors'
// effects (the fold-ordering contract both drivers rely on).
func TestPoolChainOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		var order [64]int32
		var seq atomic.Int32
		var tail *Task
		for i := 0; i < len(order); i++ {
			i := i
			tk := &Task{Prev: tail, Fn: func() { order[i] = seq.Add(1) }}
			p.Submit(tk)
			tail = tk
		}
		tail.Wait()
		p.Close()
		for i := 1; i < len(order); i++ {
			if order[i] <= order[i-1] {
				t.Fatalf("workers=%d: chained task %d ran at %d, before predecessor at %d",
					workers, i, order[i], order[i-1])
			}
		}
	}
}

func TestStealCriterion(t *testing.T) {
	// No data, no steal; alpha 0 disables.
	if StealCriterion(10, 0, 1, 1) || StealCriterion(10, 1000, 1, 0) {
		t.Error("degenerate cases should reject")
	}
	// Large D vs small V: worth stealing at alpha 1.
	if !StealCriterion(10, 1_000_000, 1, 1) {
		t.Error("large remaining work should accept")
	}
	// Tiny D vs large V: not worth a vertex-set copy.
	if StealCriterion(1_000_000, 10, 1, 1) {
		t.Error("tiny remaining work should reject")
	}
	// alpha = inf always steals while data remains, and only then.
	if !StealCriterion(900, 1000, 1, math.Inf(1)) || StealCriterion(0, 0, 1, math.Inf(1)) {
		t.Error("alpha=inf must steal exactly when data remains")
	}
	// More helpers make stealing less attractive.
	if StealCriterion(50, 1000, 8, 1) && !StealCriterion(50, 1000, 1, 1) {
		t.Error("criterion should tighten with more workers")
	}
}

func TestSplitInputCoversAllEdges(t *testing.T) {
	prop := func(nEdges uint16, nmRaw uint8) bool {
		nm := int(nmRaw%32) + 1
		n := int(nEdges) % 5000
		parts := SplitInput(n, nm)
		if len(parts) != nm {
			return false
		}
		// Ranges must be contiguous, in order, and cover every edge.
		seen := 0
		for _, p := range parts {
			if p[0] != seen || p[1] < p[0] {
				return false
			}
			seen = p[1]
		}
		return seen == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// loopsAtCuts returns r base edges whose undirected view, split across
// nm machines, has a self-loop at every cut: there a view position's
// base edge shifts by one, and a cut elsewhere falls between an edge
// and its reverse.
func loopsAtCuts(r, nm int) []graph.Edge {
	edges := make([]graph.Edge, r)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i % 50), Dst: graph.VertexID((i*7 + 1) % 50), Weight: float32(i)}
	}
	// Each round turns at least one edge into a self-loop, so it ends.
	for {
		var base []int // base[v] is view position v's base edge
		for i, e := range edges {
			base = append(base, i)
			if e.Src != e.Dst {
				base = append(base, i)
			}
		}
		per, moved := (len(base)+nm-1)/nm, false
		for cut := per; cut < len(base); cut += per {
			if e := &edges[base[cut]]; e.Src != e.Dst {
				e.Dst, moved = e.Src, true
			}
		}
		if !moved {
			return edges
		}
	}
}

// TestSplitInputReadsViewCuts: every machine's range of a view, read
// through the view's source over §8 records, is the slice the split of
// the materialized view gave it, for all three views and machine counts
// 1-8 and 32.
func TestSplitInputReadsViewCuts(t *testing.T) {
	f := graph.Format{Compact: true, Weighted: true}
	for _, nm := range []int{1, 2, 3, 4, 5, 6, 7, 8, 32} {
		edges := loopsAtCuts(1000, nm)
		recs, err := graph.Records(f.EncodeEdges(nil, edges), f)
		if err != nil {
			t.Fatal(err)
		}
		var und, aug []graph.Edge // the materializing loops
		for _, e := range edges {
			rev := graph.Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight}
			und = append(und, e)
			if e.Src != e.Dst {
				und = append(und, rev)
			}
			aug = append(aug, graph.Edge{Src: e.Src, Dst: e.Dst}, graph.Edge{Src: e.Dst, Dst: e.Src, Weight: 1})
		}
		per := (len(und) + nm - 1) / nm
		for cut := per; cut < len(und); cut += per {
			if und[cut].Src != und[cut].Dst {
				t.Fatalf("%d machines: undirected position %d, a cut, is no self-loop", nm, cut)
			}
		}
		for _, v := range []struct {
			name string
			src  graph.Source
			want []graph.Edge
		}{
			{"directed", recs, edges},
			{"undirected", graph.UndirectedView(recs), und},
			{"augmented", algorithms.AugmentedView(recs), aug},
		} {
			per := (len(v.want) + nm - 1) / nm
			scratch := graph.NewScratch()
			for m, r := range SplitInput(v.src.Len(), nm) {
				want := v.want[min(m*per, len(v.want)):min((m+1)*per, len(v.want))]
				var got []graph.Edge
				v.src.Range(r[0], r[1], scratch, func(b []graph.Edge) { got = append(got, b...) })
				if !slices.Equal(got, want) {
					t.Fatalf("%s view, %d machines: machine %d read %d edges over [%d, %d), want the split's %d", v.name, nm, m, len(got), r[0], r[1], len(want))
				}
			}
		}
	}
}
