package core

import (
	"math"
	"testing"
	"testing/quick"

	"chaos/internal/algorithms"
	"chaos/internal/cluster"
	"chaos/internal/core/drive"
	"chaos/internal/graph"
	"chaos/internal/sim"
)

func TestSplitInputCoversAllEdges(t *testing.T) {
	prop := func(nEdges uint16, nmRaw uint8) bool {
		nm := int(nmRaw%32) + 1
		edges := make([]graph.Edge, int(nEdges)%5000)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.VertexID(i)}
		}
		parts := splitInput(edges, nm)
		if len(parts) != nm {
			return false
		}
		total := 0
		for _, p := range parts {
			total += len(p)
		}
		if total != len(edges) {
			return false
		}
		// Slices must be contiguous and in order.
		seen := 0
		for _, p := range parts {
			for _, e := range p {
				if int(e.Src) != seen {
					return false
				}
				seen++
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUpdateRecordRoundTrip(t *testing.T) {
	for _, n := range []uint64{1 << 10, 1 << 33} {
		cfg := testConfig(2, n, 8)
		eng, err := newEngine(cfg, &algorithms.PageRank{Iterations: 1}, []graph.Edge{{Src: 0, Dst: 1}}, n)
		if err != nil {
			t.Fatal(err)
		}
		wantID := 4
		if n >= 1<<32 {
			wantID = 8
		}
		if eng.idBytes != wantID {
			t.Errorf("n=%d: idBytes=%d, want %d", n, eng.idBytes, wantID)
		}
		prop := func(dst uint32, val float32) bool {
			d := graph.VertexID(dst)
			if n >= 1<<33 {
				d += 1 << 32 // exercise wide IDs
			}
			if uint64(d) >= n {
				d = graph.VertexID(n - 1)
			}
			buf := eng.kern.AppendUpdate(nil, d, &val)
			if len(buf) != eng.updBytes {
				return false
			}
			var got drive.UpdRec[float32]
			eng.kern.DecodeUpdate(buf, &got)
			return got.Dst == d && (got.Val == val || (math.IsNaN(float64(got.Val)) && math.IsNaN(float64(val))))
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		eng.env.Close()
	}
}

func TestWindowComputation(t *testing.T) {
	cfg := DefaultConfig(cluster.SSD(8))
	env := clusterEnv(t, cfg)
	w := cfg.window(env)
	// phi is slightly above 1 at the 4MB default chunk, so the window is
	// a small multiple of k=5.
	if w < cfg.BatchK || w > 4*cfg.BatchK {
		t.Errorf("window = %d, want within [k, 4k] = [5, 20]", w)
	}
	cfg.WindowOverride = 3
	if got := cfg.window(env); got != 3 {
		t.Errorf("override ignored: %d", got)
	}
}

func clusterEnv(t *testing.T, cfg Config) *cluster.Cluster {
	t.Helper()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	return cluster.New(sim.NewEnv(1), cfg.Spec)
}

func TestVertexChunkGeometry(t *testing.T) {
	cfg := testConfig(2, 1000, 8)
	cfg.VertexChunkBytes = 64 // 8 vertices per chunk
	eng, err := newEngine(cfg, &algorithms.PageRank{Iterations: 1},
		[]graph.Edge{{Src: 0, Dst: 1}}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.env.Close()
	if got := eng.verticesPerChunk(); got != 8 {
		t.Errorf("verticesPerChunk = %d, want 8", got)
	}
	total := 0
	for part := 0; part < eng.layout.NumPartitions; part++ {
		n := eng.vertexChunks(part)
		size := eng.layout.Size(part)
		if size == 0 && n != 0 {
			t.Errorf("empty partition %d has %d chunks", part, n)
		}
		if size > 0 {
			want := int((size + 7) / 8)
			if n != want {
				t.Errorf("partition %d: %d chunks, want %d", part, n, want)
			}
		}
		total += n
	}
	if total == 0 {
		t.Error("no vertex chunks at all")
	}
	if got := eng.vertexSetBytes(0); got != int64(eng.layout.Size(0))*8 {
		t.Errorf("vertexSetBytes = %d", got)
	}
}

func TestDecisionStateMachine(t *testing.T) {
	cfg := testConfig(1, 100, 8)
	cfg.CheckpointEvery = 2
	eng, err := newEngine(cfg, &algorithms.PageRank{Iterations: 10},
		[]graph.Edge{{Src: 0, Dst: 1}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.env.Close()
	// Not converged, no checkpoint at iter 0.
	eng.changed = 5
	eng.decide(0)
	if eng.decision.done || eng.ckptIter != -1 {
		t.Errorf("iter 0: %+v ckptIter=%d", eng.decision, eng.ckptIter)
	}
	// Checkpoint commits at iter 1 ((1+1)%2 == 0).
	eng.ckptPending[0] = [][]byte{{1}}
	eng.decide(1)
	if eng.ckptIter != 1 {
		t.Errorf("checkpoint not committed at iter 1: %d", eng.ckptIter)
	}
	if len(eng.ckptVerts) != 1 {
		t.Error("pending checkpoint not promoted")
	}
	// Convergence at the program's iteration bound.
	eng.decide(9)
	if !eng.decision.done {
		t.Error("not done at PageRank's final iteration")
	}
}

func TestChangedCounterResetsAtDecision(t *testing.T) {
	cfg := testConfig(1, 100, 8)
	eng, err := newEngine(cfg, &algorithms.PageRank{Iterations: 10},
		[]graph.Edge{{Src: 0, Dst: 1}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.env.Close()
	eng.changed = 42
	eng.decide(0)
	if eng.changed != 0 {
		t.Errorf("changed = %d after decide, want 0", eng.changed)
	}
}
