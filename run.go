package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"chaos/internal/algorithms"
	"chaos/internal/core"
	"chaos/internal/core/native"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/metrics"
)

// runProgram executes a GAS program through the configured driver —
// the DES engine by default, the native execution plane for
// Options.Engine = "native" — and wraps the statistics. A cancelable ctx
// is observed at iteration boundaries under both drivers: the run
// finishes the current iteration, unwinds cleanly and the error is
// ctx.Err() (so callers can errors.Is against context.Canceled).
func runProgram[V, U, A any](ctx context.Context, opt Options, prog gas.Program[V, U, A], edges EdgeSource, n uint64) ([]V, *Report, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	cfg := opt.config()
	if ctx == nil {
		ctx = context.Background()
	}
	if done := ctx.Done(); done != nil {
		cfg.Interrupt = func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
	}
	cfg.Env = envFrom(ctx)
	nativeEngine := opt.Canonical().Engine == EngineNative
	var (
		values []V
		run    *metrics.Run
		err    error
	)
	if nativeEngine {
		values, run, err = native.Run(cfg, prog, edges, n)
	} else {
		values, run, err = core.Run(cfg, prog, edges, n)
	}
	if err != nil {
		if errors.Is(err, core.ErrInterrupted) && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
		return nil, nil, err
	}
	if nativeEngine {
		return values, nativeReportFrom(run, cfg.Spec.Machines), nil
	}
	return values, reportFrom(run, cfg.Spec.Machines), nil
}

// runVector runs prog and projects each vertex's state to the one field
// the typed Run functions return.
func runVector[V, U, A, T any](ctx context.Context, opt Options, prog gas.Program[V, U, A], edges EdgeSource, n uint64, pick func(V) T) ([]T, *Report, error) {
	values, rep, err := runProgram(ctx, opt, prog, edges, n)
	if err != nil {
		return nil, nil, err
	}
	out := make([]T, len(values))
	for i, v := range values {
		out[i] = pick(v)
	}
	return out, rep, nil
}

// View names the edge-list transformation an algorithm consumes. The
// evaluation (§8) runs the undirected algorithms over edges plus their
// reverses and SCC over the forward/backward augmented list. A view is
// read through its base edge list (View.Source) rather than copied;
// callers that run many jobs over one graph (the job service) build the
// view's source once and dispatch through RunSourceContext.
type View int

const (
	// ViewDirected is the raw edge list (PR, Cond, SpMV, BP).
	ViewDirected View = iota
	// ViewUndirected adds each edge's reverse (BFS, WCC, MCST, MIS, SSSP).
	ViewUndirected
	// ViewAugmented is the SCC forward/backward augmentation.
	ViewAugmented
)

func (v View) String() string {
	switch v {
	case ViewUndirected:
		return "undirected"
	case ViewAugmented:
		return "augmented"
	default:
		return "directed"
	}
}

// Source returns the view of src, read through src.
func (v View) Source(src EdgeSource) EdgeSource {
	switch v {
	case ViewUndirected:
		return graph.UndirectedView(src)
	case ViewAugmented:
		return algorithms.AugmentedView(src)
	default:
		return src
	}
}

// Apply materializes the view of edges. ViewDirected returns edges
// unchanged (no copy).
func (v View) Apply(edges []Edge) []Edge {
	if v == ViewDirected {
		return edges
	}
	return graph.Collect(v.Source(graph.Edges(edges)))
}

// ViewFor returns the view RunByName applies for the named algorithm.
func ViewFor(name string) (View, error) {
	a, err := lookupAlgorithm(name)
	if err != nil {
		return ViewDirected, err
	}
	return a.view, nil
}

// RunBFS computes breadth-first levels from root over the undirected view
// of edges. Levels of unreachable vertices are ^uint32(0). n may be zero
// to infer the vertex count.
func RunBFS(edges []Edge, n uint64, root VertexID, opt Options) ([]uint32, *Report, error) {
	return runBFS(context.Background(), ViewUndirected.Source(graph.Edges(edges)), n, root, opt)
}

func runBFS(ctx context.Context, undirected EdgeSource, n uint64, root VertexID, opt Options) ([]uint32, *Report, error) {
	return runVector(ctx, opt, &algorithms.BFS{Root: root}, undirected, n,
		func(v algorithms.BFSVertex) uint32 { return v.Level })
}

// RunWCC returns the minimum vertex ID of each vertex's weakly connected
// component.
func RunWCC(edges []Edge, n uint64, opt Options) ([]uint32, *Report, error) {
	return runWCC(context.Background(), ViewUndirected.Source(graph.Edges(edges)), n, opt)
}

func runWCC(ctx context.Context, undirected EdgeSource, n uint64, opt Options) ([]uint32, *Report, error) {
	return runVector(ctx, opt, &algorithms.WCC{}, undirected, n,
		func(v algorithms.WCCVertex) uint32 { return v.Label })
}

// RunSSSP returns shortest-path distances from root over the undirected
// weighted view of edges (Inf for unreachable vertices).
func RunSSSP(edges []Edge, n uint64, root VertexID, opt Options) ([]float32, *Report, error) {
	return runSSSP(context.Background(), ViewUndirected.Source(graph.Edges(edges)), n, root, opt)
}

func runSSSP(ctx context.Context, undirected EdgeSource, n uint64, root VertexID, opt Options) ([]float32, *Report, error) {
	return runVector(ctx, opt, &algorithms.SSSP{Root: root}, undirected, n,
		func(v algorithms.SSSPVertex) float32 { return v.Dist })
}

// RunPageRank runs iters rounds of PageRank over the directed edge list
// and returns the rank vector.
func RunPageRank(edges []Edge, n uint64, iters int, opt Options) ([]float32, *Report, error) {
	return runPageRank(context.Background(), graph.Edges(edges), n, iters, opt)
}

func runPageRank(ctx context.Context, edges EdgeSource, n uint64, iters int, opt Options) ([]float32, *Report, error) {
	return runVector(ctx, opt, &algorithms.PageRank{Iterations: iters}, edges, n,
		func(v algorithms.PRVertex) float32 { return v.Rank })
}

// RunMIS computes a maximal independent set over the undirected view of
// edges and returns the membership vector.
func RunMIS(edges []Edge, n uint64, opt Options) ([]bool, *Report, error) {
	return runMIS(context.Background(), ViewUndirected.Source(graph.Edges(edges)), n, opt)
}

func runMIS(ctx context.Context, undirected EdgeSource, n uint64, opt Options) ([]bool, *Report, error) {
	prog := &algorithms.MIS{}
	return runVector(ctx, opt, prog, undirected, n, prog.InSet)
}

// MCSTResult reports a minimum-cost spanning forest.
type MCSTResult struct {
	// TotalWeight is the forest weight.
	TotalWeight float64
	// Edges is the number of forest edges.
	Edges int
	// Component is each vertex's component representative.
	Component []uint64
}

// RunMCST computes the minimum-cost spanning forest of the undirected
// weighted view of edges (Borůvka's algorithm).
func RunMCST(edges []Edge, n uint64, opt Options) (*MCSTResult, *Report, error) {
	return runMCST(context.Background(), ViewUndirected.Source(graph.Edges(edges)), n, opt)
}

func runMCST(ctx context.Context, undirected EdgeSource, n uint64, opt Options) (*MCSTResult, *Report, error) {
	prog := &algorithms.MCST{}
	values, rep, err := runProgram(ctx, opt, prog, undirected, n)
	if err != nil {
		return nil, nil, err
	}
	res := &MCSTResult{TotalWeight: prog.Total, Edges: prog.Edges, Component: make([]uint64, len(values))}
	for i := range values {
		res.Component[i] = values[i].Comp
	}
	return res, rep, nil
}

// RunSCC returns each vertex's strongly connected component label over the
// directed edge list.
func RunSCC(edges []Edge, n uint64, opt Options) ([]uint32, *Report, error) {
	return runSCC(context.Background(), ViewAugmented.Source(graph.Edges(edges)), n, opt)
}

func runSCC(ctx context.Context, augmented EdgeSource, n uint64, opt Options) ([]uint32, *Report, error) {
	return runVector(ctx, opt, &algorithms.SCC{}, augmented, n,
		func(v algorithms.SCCVertex) uint32 { return v.SCC })
}

// RunConductance computes the conductance of a deterministic hash-based
// vertex subset over the directed edge list (a single pass).
func RunConductance(edges []Edge, n uint64, opt Options) (float64, *Report, error) {
	return runConductance(context.Background(), graph.Edges(edges), n, opt)
}

func runConductance(ctx context.Context, edges EdgeSource, n uint64, opt Options) (float64, *Report, error) {
	prog := &algorithms.Conductance{}
	values, rep, err := runProgram(ctx, opt, prog, edges, n)
	if err != nil {
		return 0, nil, err
	}
	return prog.Aggregate(values), rep, nil
}

// RunSpMV computes y = A*x over the weighted directed edge list
// (A[dst][src] = weight; x is a deterministic input vector) and returns y.
func RunSpMV(edges []Edge, n uint64, opt Options) ([]float32, *Report, error) {
	return runSpMV(context.Background(), graph.Edges(edges), n, opt)
}

func runSpMV(ctx context.Context, edges EdgeSource, n uint64, opt Options) ([]float32, *Report, error) {
	return runVector(ctx, opt, &algorithms.SpMV{}, edges, n,
		func(v algorithms.SpMVVertex) float32 { return v.Y })
}

// RunBP runs iters rounds of simplified loopy belief propagation over the
// weighted directed edge list and returns the belief vector.
func RunBP(edges []Edge, n uint64, iters int, opt Options) ([]float32, *Report, error) {
	return runBP(context.Background(), graph.Edges(edges), n, iters, opt)
}

func runBP(ctx context.Context, edges EdgeSource, n uint64, iters int, opt Options) ([]float32, *Report, error) {
	return runVector(ctx, opt, &algorithms.BP{Iterations: iters}, edges, n,
		func(v algorithms.BPVertex) float32 { return v.Belief })
}

// Result captures an algorithm's output in a compact, JSON-friendly form.
// The job service returns it instead of the raw per-vertex vector, which
// for large graphs would dwarf the transport; the summaries are also what
// the evaluation checks against reference implementations.
type Result struct {
	// Algorithm is the canonical algorithm name.
	Algorithm string `json:"algorithm"`
	// Vertices is the length of the value vector the run produced.
	Vertices int `json:"vertices"`
	// Summary holds the per-algorithm scalar summaries (e.g. BFS
	// "reachable" and "depth", WCC "components", PR "rank_sum").
	Summary map[string]float64 `json:"summary"`
}

// preparedRun runs one algorithm with its evaluation-default parameters
// over edges already in the algorithm's view, and summarizes the values.
type preparedRun func(ctx context.Context, edges EdgeSource, n uint64, opt Options) (*Result, *Report, error)

// algorithm is one row of algorithmTable.
type algorithm struct {
	name    string   // canonical Table 1 spelling
	aliases []string // lower-case long names ParseAlgorithm also accepts
	view    View
	weights bool // consumes edge weights
	run     preparedRun
}

// algorithmTable declares the evaluation algorithms once, in Table 1
// order: Algorithms, ParseAlgorithm, ViewFor, NeedsWeights and
// RunPreparedContext are all lookups in it. The evaluation defaults are
// root 0 for the traversals and 5 rounds for the iterative algorithms.
var algorithmTable = []algorithm{
	{name: "BFS", view: ViewUndirected,
		run: vectorRun(func(ctx context.Context, edges EdgeSource, n uint64, opt Options) ([]uint32, *Report, error) {
			return runBFS(ctx, edges, n, 0, opt)
		}, bfsSummary)},
	{name: "WCC", view: ViewUndirected, run: vectorRun(runWCC, componentSummary)},
	{name: "MCST", view: ViewUndirected, weights: true,
		run: func(ctx context.Context, edges EdgeSource, n uint64, opt Options) (*Result, *Report, error) {
			forest, rep, err := runMCST(ctx, edges, n, opt)
			if err != nil {
				return nil, nil, err
			}
			return &Result{Vertices: len(forest.Component), Summary: map[string]float64{
				"total_weight": forest.TotalWeight,
				"forest_edges": float64(forest.Edges),
			}}, rep, nil
		}},
	{name: "MIS", view: ViewUndirected, run: vectorRun(runMIS, misSummary)},
	{name: "SSSP", view: ViewUndirected, weights: true,
		run: vectorRun(func(ctx context.Context, edges EdgeSource, n uint64, opt Options) ([]float32, *Report, error) {
			return runSSSP(ctx, edges, n, 0, opt)
		}, ssspSummary)},
	{name: "PR", aliases: []string{"pagerank"}, view: ViewDirected,
		run: vectorRun(func(ctx context.Context, edges EdgeSource, n uint64, opt Options) ([]float32, *Report, error) {
			return runPageRank(ctx, edges, n, 5, opt)
		}, prSummary)},
	{name: "SCC", view: ViewAugmented, run: vectorRun(runSCC, componentSummary)},
	{name: "Cond", aliases: []string{"conductance"}, view: ViewDirected,
		run: func(ctx context.Context, edges EdgeSource, n uint64, opt Options) (*Result, *Report, error) {
			cond, rep, err := runConductance(ctx, edges, n, opt)
			if err != nil {
				return nil, nil, err
			}
			// The value is a scalar; n = 0 still reports the inferred
			// vertex count.
			if n == 0 {
				n, _ = graph.VertexCount(edges, 0)
			}
			return &Result{Vertices: int(n), Summary: map[string]float64{"conductance": cond}}, rep, nil
		}},
	{name: "SpMV", view: ViewDirected, weights: true, run: vectorRun(runSpMV, spmvSummary)},
	{name: "BP", view: ViewDirected, weights: true,
		run: vectorRun(func(ctx context.Context, edges EdgeSource, n uint64, opt Options) ([]float32, *Report, error) {
			return runBP(ctx, edges, n, 5, opt)
		}, bpSummary)},
}

// vectorRun adapts a typed runner whose output is one value per vertex.
func vectorRun[T any](run func(context.Context, EdgeSource, uint64, Options) ([]T, *Report, error), summary func([]T) map[string]float64) preparedRun {
	return func(ctx context.Context, edges EdgeSource, n uint64, opt Options) (*Result, *Report, error) {
		values, rep, err := run(ctx, edges, n, opt)
		if err != nil {
			return nil, nil, err
		}
		return &Result{Vertices: len(values), Summary: summary(values)}, rep, nil
	}
}

// lookupAlgorithm finds a row by canonical name.
func lookupAlgorithm(name string) (*algorithm, error) {
	for i := range algorithmTable {
		if algorithmTable[i].name == name {
			return &algorithmTable[i], nil
		}
	}
	return nil, errUnknownAlgorithm(name)
}

// Algorithms lists the evaluation algorithm names in Table 1 order.
func Algorithms() []string {
	names := make([]string, len(algorithmTable))
	for i, a := range algorithmTable {
		names[i] = a.name
	}
	return names
}

// ParseAlgorithm resolves a case-insensitive algorithm name to its
// canonical Table 1 spelling ("pagerank" and "pr" both mean "PR").
func ParseAlgorithm(name string) (string, error) {
	for _, a := range algorithmTable {
		if strings.EqualFold(a.name, name) || slices.Contains(a.aliases, strings.ToLower(name)) {
			return a.name, nil
		}
	}
	return "", errUnknownAlgorithm(name)
}

// NeedsWeights reports whether the named algorithm consumes edge weights.
func NeedsWeights(name string) bool {
	a, err := lookupAlgorithm(name)
	return err == nil && a.weights
}

// RunPrepared runs the named algorithm with its evaluation-default
// parameters, assuming edges is already in the view ViewFor(name) returns.
func RunPrepared(name string, edges []Edge, n uint64, opt Options) (*Result, *Report, error) {
	return RunPreparedContext(context.Background(), name, edges, n, opt)
}

// RunPreparedContext is RunPrepared with cooperative cancellation: the
// engine polls ctx at each iteration boundary and, once ctx is
// canceled, finishes the iteration, unwinds the simulation cleanly and
// returns ctx.Err().
func RunPreparedContext(ctx context.Context, name string, edges []Edge, n uint64, opt Options) (*Result, *Report, error) {
	return RunSourceContext(ctx, name, graph.Edges(edges), n, opt)
}

// RunSourceContext is RunPreparedContext over an edge source already in
// the view ViewFor(name) returns: the engine streams it in its §3 pass
// and never copies it whole. The job service runs every job this way,
// over the views of the records it keeps per graph, and makes DELETE on
// a running job take effect through ctx.
func RunSourceContext(ctx context.Context, name string, src EdgeSource, n uint64, opt Options) (*Result, *Report, error) {
	a, err := lookupAlgorithm(name)
	if err != nil {
		return nil, nil, err
	}
	res, rep, err := a.run(ctx, src, n, opt)
	if err != nil {
		return nil, nil, err
	}
	res.Algorithm = a.name
	return res, rep, nil
}

func bfsSummary(levels []uint32) map[string]float64 {
	reachable, depth := 0, uint32(0)
	for _, l := range levels {
		if l != ^uint32(0) {
			reachable++
			if l > depth {
				depth = l
			}
		}
	}
	return map[string]float64{"reachable": float64(reachable), "depth": float64(depth)}
}

// componentSummary summarizes a component-labeling vector.
func componentSummary(labels []uint32) map[string]float64 {
	sizes := make(map[uint32]int)
	for _, l := range labels {
		sizes[l]++
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	return map[string]float64{"components": float64(len(sizes)), "largest": float64(largest)}
}

func misSummary(in []bool) map[string]float64 {
	size := 0
	for _, b := range in {
		if b {
			size++
		}
	}
	return map[string]float64{"set_size": float64(size)}
}

func ssspSummary(dists []float32) map[string]float64 {
	reached, maxDist := 0, 0.0
	for _, d := range dists {
		if !math.IsInf(float64(d), 1) {
			reached++
			if float64(d) > maxDist {
				maxDist = float64(d)
			}
		}
	}
	return map[string]float64{"reached": float64(reached), "max_dist": maxDist}
}

func prSummary(ranks []float32) map[string]float64 {
	sum, maxRank := 0.0, 0.0
	for _, r := range ranks {
		sum += float64(r)
		if float64(r) > maxRank {
			maxRank = float64(r)
		}
	}
	return map[string]float64{"rank_sum": sum, "max_rank": maxRank}
}

func spmvSummary(y []float32) map[string]float64 {
	var norm1 float64
	for _, v := range y {
		norm1 += math.Abs(float64(v))
	}
	return map[string]float64{"norm1": norm1}
}

func bpSummary(beliefs []float32) map[string]float64 {
	var sum float64
	for _, b := range beliefs {
		sum += float64(b)
	}
	return map[string]float64{"belief_sum": sum}
}

// RunByNameResult dispatches to the named algorithm with its
// evaluation-default parameters, reading edges through the algorithm's
// view, and returns the captured Result alongside the Report.
func RunByNameResult(name string, edges []Edge, n uint64, opt Options) (*Result, *Report, error) {
	view, err := ViewFor(name)
	if err != nil {
		return nil, nil, err
	}
	return RunSourceContext(context.Background(), name, view.Source(graph.Edges(edges)), n, opt)
}

// RunByName dispatches to the named algorithm with its evaluation-default
// parameters, returning only the report (used by the benchmark harness).
func RunByName(name string, edges []Edge, n uint64, opt Options) (*Report, error) {
	_, rep, err := RunByNameResult(name, edges, n, opt)
	return rep, err
}

type errUnknownAlgorithm string

func (e errUnknownAlgorithm) Error() string {
	return fmt.Sprintf("chaos: unknown algorithm %q (want one of %s)", string(e), strings.Join(Algorithms(), " "))
}
