package native_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/core"
	"chaos/internal/core/drive"
	"chaos/internal/core/native"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/metrics"
)

// codecCountingPR is PageRank whose vertex codec counts its Put and Get
// calls by the iteration in progress when each is made: the iteration
// count the last Progress report carried, so a call made during
// iteration i's apply counts under i, and one made by the restore after
// iteration i's decision point under i+1.
type codecCountingPR struct {
	algorithms.PageRank
	iter atomic.Int64
	mu   sync.Mutex
	puts map[int64]int
	gets map[int64]int
}

func newCodecCountingPR() *codecCountingPR {
	return &codecCountingPR{PageRank: algorithms.PageRank{Iterations: 8}, puts: map[int64]int{}, gets: map[int64]int{}}
}

func (w *codecCountingPR) VertexCodec() gas.Codec[algorithms.PRVertex] {
	c := w.PageRank.VertexCodec()
	put, get := c.Put, c.Get
	count := func(m map[int64]int) {
		w.mu.Lock()
		m[w.iter.Load()]++
		w.mu.Unlock()
	}
	c.Put = func(buf []byte, v *algorithms.PRVertex) { count(w.puts); put(buf, v) }
	c.Get = func(buf []byte, v *algorithms.PRVertex) { count(w.gets); get(buf, v) }
	return c
}

func (w *codecCountingPR) progress(p drive.Progress) { w.iter.Store(int64(p.Iterations)) }

// TestVertexCodecRunsOnlyAtCheckpoints holds both planes to vertex sets
// that stay resident and typed: without checkpoints a run never encodes
// or decodes a vertex, and with them every encode falls in an iteration
// that ends with a checkpoint and every decode in the restore after the
// injected failure, one whole vertex set each.
func TestVertexCodecRunsOnlyAtCheckpoints(t *testing.T) {
	edges, n := rmatEdges(7, false, 42)
	src := graph.Edges(edges)
	planes := []struct {
		name string
		run  func(core.Config, gas.Program[algorithms.PRVertex, float32, float64]) (*metrics.Run, error)
	}{
		{"sim", func(c core.Config, p gas.Program[algorithms.PRVertex, float32, float64]) (*metrics.Run, error) {
			_, run, err := core.Run(c, p, src, n)
			return run, err
		}},
		{"native", func(c core.Config, p gas.Program[algorithms.PRVertex, float32, float64]) (*metrics.Run, error) {
			_, run, err := native.Run(c, p, src, n)
			return run, err
		}},
	}
	for _, plane := range planes {
		w := newCodecCountingPR()
		c := cfg(4, n, 8)
		c.Progress = w.progress
		if _, err := plane.run(c, w); err != nil {
			t.Fatalf("%s: %v", plane.name, err)
		}
		if len(w.puts) != 0 || len(w.gets) != 0 {
			t.Errorf("%s without checkpoints: vertex codec Put by iteration %v, Get %v; want none", plane.name, w.puts, w.gets)
		}

		const every, failAt = 2, 4
		w = newCodecCountingPR()
		c = cfg(4, n, 8)
		c.Progress = w.progress
		c.CheckpointEvery, c.FailAtIteration = every, failAt
		run, err := plane.run(c, w)
		if err != nil {
			t.Fatalf("%s with checkpoints: %v", plane.name, err)
		}
		if run.Recoveries != 1 || len(w.puts) == 0 {
			t.Fatalf("%s: %d recoveries, Put by iteration %v; want one recovery and a checkpoint", plane.name, run.Recoveries, w.puts)
		}
		for iter, calls := range w.puts {
			if (iter+1)%every != 0 || calls%int(n) != 0 {
				t.Errorf("%s: %d Put calls in iteration %d; want whole vertex sets, only in iterations that end with a checkpoint", plane.name, calls, iter)
			}
		}
		// Iteration failAt-1 ends with a checkpoint, then fails and
		// restores it.
		if want := map[int64]int{failAt: int(n)}; len(w.gets) != 1 || w.gets[failAt] != int(n) {
			t.Errorf("%s: Get by iteration %v; want %v, one restore", plane.name, w.gets, want)
		}
	}
}
