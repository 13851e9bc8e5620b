package chaos

import (
	"context"
	"runtime"
	"testing"

	"chaos/internal/core/drive"
	"chaos/internal/graph"
	"chaos/internal/raceflag"
)

// TestWarmRunAllocs: a native run that borrows its bin set from a
// BinCache skips the §3 pass's allocations. Two PageRank runs on RMAT-12
// through one cache: the second allocates less than the first by at
// least 90 % of what the bin set holds, and returns the same values.
func TestWarmRunAllocs(t *testing.T) {
	if raceflag.Enabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	edges := GenerateRMAT(12, false, 1)
	opt := Options{Engine: EngineNative, Machines: 2, ChunkBytes: 64 << 10, ComputeWorkers: 2, Seed: 1}
	src := graph.Edges(edges)
	cache := drive.NewBinStore().Bind(src)
	ctx := WithBinCache(context.Background(), cache)
	run := func() (*Result, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, _, err := RunSourceContext(ctx, "PR", src, 1<<12, opt)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	coldRes, cold := run()
	warmRes, warm := run()
	held := cache.Store().Bytes()
	if held == 0 {
		t.Fatal("the cold run left no bin set in the cache")
	}
	t.Logf("cold run %d B, warm run %d B, bin set %d B", cold, warm, held)
	if saved := int64(cold) - int64(warm); float64(saved) < 0.9*float64(held) {
		t.Errorf("cold run allocated %d B, warm %d B: saved %d B, want at least 90 %% of the bin set's %d B", cold, warm, saved, held)
	}
	if coldRes.Summary["rank_sum"] != warmRes.Summary["rank_sum"] || coldRes.Summary["max_rank"] != warmRes.Summary["max_rank"] {
		t.Errorf("warm summary %v, cold %v", warmRes.Summary, coldRes.Summary)
	}
}
