package drive

import (
	"math"
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
		edges := make([]graph.Edge, int(nEdges)%5000)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.VertexID(i)}
		}
		parts := SplitInput(edges, nm)
		if len(parts) != nm {
			return false
		}
		// Slices must be contiguous, in order, and cover every edge.
		seen := 0
		for _, p := range parts {
			for _, e := range p {
				if int(e.Src) != seen {
					return false
				}
				seen++
			}
		}
		return seen == len(edges)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
