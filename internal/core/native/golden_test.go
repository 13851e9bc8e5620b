package native_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/core"
	"chaos/internal/core/drive"
	"chaos/internal/core/native"
	"chaos/internal/gas"
	"chaos/internal/graph"
)

// nativeGolden is what TestNativeGoldenValues pins per run: a hash of the
// encoded final values, the counters the decision policy produces, and
// the number of edge chunks pre-processing cut (a moved chunk boundary
// changes it before it changes a value).
type nativeGolden struct {
	Values     string
	Iterations int
	Recoveries int
	EdgeChunks int
}

func goldenNative[V, U, A any](t *testing.T, c core.Config, prog gas.Program[V, U, A], edges []graph.Edge, n uint64) nativeGolden {
	t.Helper()
	var mu sync.Mutex
	chunks := 0
	c.Trace = func(s drive.Span) {
		if s.Phase == drive.PhasePreprocess {
			mu.Lock()
			chunks += s.Chunks
			mu.Unlock()
		}
	}
	values, run, err := native.Run(c, prog, graph.Edges(edges), n)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(prog.VertexCodec().EncodeSlice(values))
	return nativeGolden{
		Values:     hex.EncodeToString(sum[:8]),
		Iterations: run.Iterations,
		Recoveries: run.Recoveries,
		EdgeChunks: chunks,
	}
}

// TestNativeGoldenValues pins the execution plane across commits the way
// core's TestGoldenReports pins the evaluation plane: the literals were
// captured on the commit before the protocol's policy moved into
// internal/core/drive (PR 14), and a change meant to preserve behaviour
// must leave them untouched. The PageRank combiner rows are the
// sensitive ones: float sums fold per edge chunk and per combiner flush,
// so a moved chunk boundary or flush threshold moves the hash.
func TestNativeGoldenValues(t *testing.T) {
	edges, n := rmatEdges(10, false, 42)
	und := graph.Undirected(edges)
	variants := []struct {
		name string
		set  func(*core.Config)
	}{
		{"plain", func(*core.Config) {}},
		{"combine", func(c *core.Config) { c.CombineUpdates = true }},
		{"budget4096", func(c *core.Config) { c.TransportBudgetBytes = 4096; c.SpillDir = t.TempDir() }},
		{"ckpt2fail3", func(c *core.Config) { c.CheckpointEvery = 2; c.FailAtIteration = 3 }},
	}
	const prHash, wccHash = "2679c5cc4434ba01", "0905b223e5cba4be"
	want := map[string]nativeGolden{
		"pr/m2/plain":       {prHash, 5, 0, 35},
		"pr/m2/combine":     {"7a574c2988c8abc7", 5, 0, 35},
		"pr/m2/budget4096":  {prHash, 5, 0, 35},
		"pr/m2/ckpt2fail3":  {prHash, 5, 1, 35},
		"pr/m4/plain":       {prHash, 5, 0, 56},
		"pr/m4/combine":     {"069009b30ab293d7", 5, 0, 56},
		"pr/m4/budget4096":  {prHash, 5, 0, 56},
		"pr/m4/ckpt2fail3":  {prHash, 5, 1, 56},
		"wcc/m2/plain":      {wccHash, 4, 0, 66},
		"wcc/m2/combine":    {wccHash, 4, 0, 66},
		"wcc/m2/budget4096": {wccHash, 4, 0, 66},
		"wcc/m2/ckpt2fail3": {wccHash, 4, 1, 66},
		"wcc/m4/plain":      {wccHash, 4, 0, 83},
		"wcc/m4/combine":    {wccHash, 4, 0, 83},
		"wcc/m4/budget4096": {wccHash, 4, 0, 83},
		"wcc/m4/ckpt2fail3": {wccHash, 4, 1, 83},
	}
	for _, m := range []int{2, 4} {
		for _, v := range variants {
			pc, wc := cfg(m, n, 8), cfg(m, n, 5)
			v.set(&pc)
			v.set(&wc)
			got := map[string]nativeGolden{
				"pr":  goldenNative(t, pc, &algorithms.PageRank{Iterations: 5}, edges, n),
				"wcc": goldenNative(t, wc, &algorithms.WCC{}, und, n),
			}
			for _, alg := range []string{"pr", "wcc"} {
				key := fmt.Sprintf("%s/m%d/%s", alg, m, v.name)
				if got[alg] != want[key] {
					t.Errorf("%s moved:\n got %#v\nwant %#v", key, got[alg], want[key])
				}
			}
		}
	}
}
