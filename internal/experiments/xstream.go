package experiments

import (
	"fmt"

	"chaos"
	"chaos/internal/algorithms"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/xstream"
)

// xstreamRun adapts the generic single-machine engine to one call site per
// vertex-state type.
func xstreamRun[V, U, A any](cfg xstream.Config, prog gas.Program[V, U, A], edges graph.Source, n uint64) (float64, error) {
	res, err := xstream.Run(cfg, prog, edges, n)
	if err != nil {
		return 0, err
	}
	return res.Runtime.Seconds(), nil
}

// xstreamByName runs the named algorithm on the X-Stream baseline over
// the view chaos.RunByName reads for it.
func xstreamByName(cfg xstream.Config, alg string, edges []chaos.Edge, n uint64) (float64, error) {
	view, err := chaos.ViewFor(alg)
	if err != nil {
		return 0, err
	}
	src := view.Source(graph.Edges(edges))
	switch alg {
	case "BFS":
		return xstreamRun(cfg, &algorithms.BFS{}, src, n)
	case "WCC":
		return xstreamRun(cfg, &algorithms.WCC{}, src, n)
	case "MCST":
		return xstreamRun(cfg, &algorithms.MCST{}, src, n)
	case "MIS":
		return xstreamRun(cfg, &algorithms.MIS{}, src, n)
	case "SSSP":
		return xstreamRun(cfg, &algorithms.SSSP{}, src, n)
	case "PR":
		return xstreamRun(cfg, &algorithms.PageRank{Iterations: 5}, src, n)
	case "SCC":
		return xstreamRun(cfg, &algorithms.SCC{}, src, n)
	case "Cond":
		return xstreamRun(cfg, &algorithms.Conductance{}, src, n)
	case "SpMV":
		return xstreamRun(cfg, &algorithms.SpMV{}, src, n)
	case "BP":
		return xstreamRun(cfg, &algorithms.BP{Iterations: 5}, src, n)
	default:
		return 0, fmt.Errorf("experiments: unknown algorithm %s", alg)
	}
}
