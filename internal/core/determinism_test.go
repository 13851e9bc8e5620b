package core

import (
	"reflect"
	"testing"

	"chaos/internal/algorithms"
	"chaos/internal/gas"
	"chaos/internal/graph"
)

// checkWorkerDeterminism runs the same program twice — once with the
// serial inline path (ComputeWorkers = 1) and once on a real worker pool
// — and requires bit-identical vertex values and a bit-identical
// metrics.Run, including every simulated timestamp-derived figure. This
// is the contract that lets the engine use host parallelism inside a
// deterministic discrete-event simulation (see parallel.go).
func checkWorkerDeterminism[V, U, A any](t *testing.T, name string,
	mkProg func() gas.Program[V, U, A], edges []graph.Edge, n uint64, mutate func(*Config)) {
	t.Helper()
	serial := testConfig(4, n, 8)
	serial.ComputeWorkers = 1
	if mutate != nil {
		mutate(&serial)
	}
	parallel := serial
	parallel.ComputeWorkers = 8

	sVals, sRun, err := Run(serial, mkProg(), graph.Edges(edges), n)
	if err != nil {
		t.Fatalf("%s serial: %v", name, err)
	}
	pVals, pRun, err := Run(parallel, mkProg(), graph.Edges(edges), n)
	if err != nil {
		t.Fatalf("%s parallel: %v", name, err)
	}
	if !reflect.DeepEqual(sVals, pVals) {
		t.Errorf("%s: parallel values differ from serial", name)
	}
	if !reflect.DeepEqual(sRun, pRun) {
		t.Errorf("%s: parallel run metrics differ from serial:\nserial:   %+v\nparallel: %+v", name, sRun, pRun)
	}
	if sRun.Runtime != pRun.Runtime {
		t.Errorf("%s: simulated runtime %v (serial) vs %v (parallel)", name, sRun.Runtime, pRun.Runtime)
	}
}

// TestParallelChunkProcessingIsDeterministic covers the three required
// algorithm shapes: PR (float accumulators, dense updates), SSSP
// (weighted edges, min-folds), SCC (multi-phase with engine-visible
// program state).
func TestParallelChunkProcessingIsDeterministic(t *testing.T) {
	edges, n := testGraph(8, true)

	checkWorkerDeterminism(t, "PR",
		func() gas.Program[algorithms.PRVertex, float32, float64] {
			return &algorithms.PageRank{Iterations: 5}
		}, edges, n, nil)

	checkWorkerDeterminism(t, "SSSP",
		func() gas.Program[algorithms.SSSPVertex, float32, float32] {
			return &algorithms.SSSP{}
		}, graph.Undirected(edges), n, nil)

	checkWorkerDeterminism(t, "SCC",
		func() gas.Program[algorithms.SCCVertex, uint32, algorithms.SCCAccum] {
			return &algorithms.SCC{}
		}, algorithms.AugmentEdges(edges), n, nil)
}

// The extended-model paths run their kernels on workers too: the combiner
// merges each chunk's output in its buffer, the rewriter emits
// next-generation edge chunks, and checkpoint/rollback replays
// iterations. The Figure 15 baseline dispatches each scatter task from a
// directory lookup's continuation, and a one-request window keeps a
// single task in flight per stream.
func TestParallelExtensionsAreDeterministic(t *testing.T) {
	edges, n := testGraph(8, true)

	checkWorkerDeterminism(t, "PR+combine",
		func() gas.Program[algorithms.PRVertex, float32, float64] {
			return &algorithms.PageRank{Iterations: 5}
		}, edges, n, func(c *Config) { c.CombineUpdates = true })

	checkWorkerDeterminism(t, "MCST+rewrite",
		func() gas.Program[algorithms.MCSTVertex, algorithms.MCSTUpdate, algorithms.MCSTAccum] {
			return &algorithms.MCST{}
		}, graph.Undirected(edges), n, func(c *Config) { c.RewriteEdges = true })

	checkWorkerDeterminism(t, "PR+ckpt+fail",
		func() gas.Program[algorithms.PRVertex, float32, float64] {
			return &algorithms.PageRank{Iterations: 5}
		}, edges, n, func(c *Config) { c.CheckpointEvery = 2; c.FailAtIteration = 3 })

	checkWorkerDeterminism(t, "PR+directory",
		func() gas.Program[algorithms.PRVertex, float32, float64] {
			return &algorithms.PageRank{Iterations: 5}
		}, edges, n, func(c *Config) { c.CentralDirectory = true })

	checkWorkerDeterminism(t, "PR+window1",
		func() gas.Program[algorithms.PRVertex, float32, float64] {
			return &algorithms.PageRank{Iterations: 5}
		}, edges, n, func(c *Config) { c.WindowOverride = 1 })
}
