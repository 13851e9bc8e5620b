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

func TestUpdateRecordRoundTrip(t *testing.T) {
	for _, n := range []uint64{1 << 10, 1 << 33} {
		cfg := testConfig(2, n, 8)
		eng, err := newEngine(cfg, &algorithms.PageRank{Iterations: 1}, graph.Edges([]graph.Edge{{Src: 0, Dst: 1}}), n)
		if err != nil {
			t.Fatal(err)
		}
		wantID := 4
		if n >= 1<<32 {
			wantID = 8
		}
		if eng.kern.IDBytes != wantID {
			t.Errorf("n=%d: idBytes=%d, want %d", n, eng.kern.IDBytes, wantID)
		}
		prop := func(dst uint32, val float32) bool {
			d := graph.VertexID(dst)
			if n >= 1<<33 {
				d += 1 << 32 // exercise wide IDs
			}
			if uint64(d) >= n {
				d = graph.VertexID(n - 1)
			}
			// The record carries d as an offset into its partition.
			lo, _ := eng.layout.Range(eng.layout.Of(d))
			in := drive.UpdRec[float32]{Off: uint32(d - lo), Val: val}
			buf := eng.kern.AppendUpdate(nil, &in)
			if len(buf) != eng.kern.UpdBytes {
				return false
			}
			var got drive.UpdRec[float32]
			eng.kern.DecodeUpdate(buf, &got)
			return lo+graph.VertexID(got.Off) == d && (got.Val == val || (math.IsNaN(float64(got.Val)) && math.IsNaN(float64(val))))
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
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	return cluster.New(sim.NewEnv(1), cfg.Spec)
}
