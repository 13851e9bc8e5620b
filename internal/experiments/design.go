package experiments

import (
	"fmt"
	"math"
	"strings"

	"chaos"
	"chaos/internal/cluster"
	"chaos/internal/giraph"
	"chaos/internal/gridpart"
	"chaos/internal/metrics"
)

// figure14 reproduces Figure 14 from the weak-scaling sweep figure7 runs:
// aggregate storage bandwidth against the devices' theoretical maximum.
func figure14(r *report, s Scale) error {
	res, err := RunWeakScaling(s, chaos.Algorithms())
	if err != nil {
		return err
	}
	r.xAxis("machines", res.Machines)
	for _, alg := range chaos.Algorithms() {
		bw := res.Bandwidth[alg]
		vals := make([]float64, len(bw))
		for i := range bw {
			vals[i] = bw[i] / bw[0]
		}
		r.series(alg, vals, "%8.2f")
	}
	maxNorm := make([]float64, len(res.Machines))
	for i := range maxNorm {
		maxNorm[i] = res.MaxBandwidth[i] / res.MaxBandwidth[0]
	}
	r.series("max", maxNorm, "%8.2f")
	return nil
}

// figure15 reproduces Figure 15: randomized placement vs a centralized
// chunk directory.
func figure15(r *report, s Scale) error {
	r.xAxis("machines", s.Machines)
	for _, alg := range []string{"BFS", "PR"} {
		for _, central := range []bool{false, true} {
			var base float64
			var vals []float64
			for i, m := range s.Machines {
				scale := s.WeakBase + log2(m)
				edges, n := graphFor(alg, scale)
				opt := s.options(m, n)
				opt.CentralDirectory = central
				rep, err := chaos.RunByName(alg, edges, n, opt)
				if err != nil {
					return fmt.Errorf("%s central=%v m=%d: %w", alg, central, m, err)
				}
				if i == 0 {
					base = rep.SimulatedSeconds
				}
				vals = append(vals, rep.SimulatedSeconds/base)
			}
			name := alg
			if central {
				name += " central"
			}
			r.series(name, vals, "%8.2f")
		}
	}
	return nil
}

// figure16 reproduces Figure 16: runtime as a function of the request
// window phi*k.
func figure16(r *report, s Scale) error {
	m := s.Machines[len(s.Machines)-1]
	windows := []int{1, 2, 3, 5, 10, 16, 32}
	r.cells("  %-10s", "phi*k", " %8.0f", floats(windows))
	for _, alg := range chaos.Algorithms() {
		edges, n := graphFor(alg, s.StrongScale)
		var at10 float64
		times := make([]float64, len(windows))
		for i, pk := range windows {
			opt := s.options(m, n)
			opt.WindowOverride = pk
			rep, err := chaos.RunByName(alg, edges, n, opt)
			if err != nil {
				return fmt.Errorf("%s phi*k=%d: %w", alg, pk, err)
			}
			times[i] = rep.SimulatedSeconds
			if pk == 10 {
				at10 = rep.SimulatedSeconds
			}
		}
		for i := range times {
			times[i] /= at10
		}
		r.cells("  %-10s", alg, " %8.2f", times)
	}
	return nil
}

// figure17 reproduces Figure 17: the runtime breakdown at the largest
// cluster size.
func figure17(r *report, s Scale) error {
	m := s.Machines[len(s.Machines)-1]
	scale := s.WeakBase + log2(m)
	cats := metrics.Categories()
	head := []any{"alg"}
	for _, c := range cats {
		head = append(head, c.String())
	}
	r.row("  %-6s"+strings.Repeat(" %13s", len(cats)), head...)
	for _, alg := range chaos.Algorithms() {
		edges, n := graphFor(alg, scale)
		rep, err := chaos.RunByName(alg, edges, n, s.options(m, n))
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		pct := make([]float64, len(cats))
		for i, c := range cats {
			pct[i] = 100 * rep.Breakdown[c.String()]
		}
		r.cells("  %-6s", alg, " %12.1f%%", pct)
	}
	return nil
}

// figure18 reproduces Figure 18: the work-stealing bias sweep.
func figure18(r *report, s Scale) error {
	m := s.Machines[len(s.Machines)-1]
	scale := s.WeakBase + log2(m)
	alphas := []float64{0, 0.8, 1.0, 1.2, math.Inf(1)}
	r.row("  %-6s %8s %8s %8s %8s %8s", "alg", "a=0", "a=0.8", "a=1", "a=1.2", "a=inf")
	for _, alg := range []string{"BFS", "PR"} {
		edges, n := graphFor(alg, scale)
		times := make([]float64, len(alphas))
		var at1 float64
		for i, a := range alphas {
			opt := s.options(m, n)
			switch {
			case a == 0:
				opt.DisableStealing = true
			case math.IsInf(a, 1):
				opt.AlwaysSteal = true
			default:
				opt.Alpha = a
			}
			rep, err := chaos.RunByName(alg, edges, n, opt)
			if err != nil {
				return fmt.Errorf("%s alpha=%v: %w", alg, a, err)
			}
			times[i] = rep.SimulatedSeconds
			if a == 1.0 {
				at1 = rep.SimulatedSeconds
			}
		}
		for i := range times {
			times[i] /= at1
		}
		r.cells("  %-6s", alg, " %8.3f", times)
	}
	return nil
}

// figure19 reproduces Figure 19: Chaos vs the Giraph baseline on PageRank,
// each normalized to its own single-machine runtime.
func figure19(r *report, s Scale) error {
	edges, n := graphFor("PR", s.StrongScale)
	r.xAxis("machines", s.Machines)

	var chaosBase float64
	var chaosVals []float64
	for i, m := range s.Machines {
		rep, err := chaos.RunByName("PR", edges, n, s.options(m, n))
		if err != nil {
			return err
		}
		if i == 0 {
			chaosBase = rep.SimulatedSeconds
		}
		chaosVals = append(chaosVals, rep.SimulatedSeconds/chaosBase)
	}
	r.series("Chaos", chaosVals, "%8.3f")

	var giraphBase float64
	var giraphVals []float64
	for i, m := range s.Machines {
		spec := cluster.ScaleLatencies(cluster.SSD(m), chaos.LatencyScaleFor(s.ChunkBytes))
		cfg := giraph.DefaultConfig(spec)
		res, err := giraph.RunPageRank(cfg, edges, n)
		if err != nil {
			return err
		}
		if i == 0 {
			giraphBase = res.Runtime.Seconds()
		}
		giraphVals = append(giraphVals, res.Runtime.Seconds()/giraphBase)
	}
	r.series("Giraph", giraphVals, "%8.3f")
	last := len(s.Machines) - 1
	r.row("  speedup at %d machines: Chaos %.1fx, Giraph %.1fx",
		s.Machines[last], 1/chaosVals[last], 1/giraphVals[last])
	return nil
}

// figure20 reproduces Figure 20: the worst-case dynamic rebalancing cost of
// Chaos against PowerGraph's in-memory grid partitioning time.
func figure20(r *report, s Scale) error {
	m := s.Machines[len(s.Machines)-1]
	grid, err := gridpart.New(m)
	if err != nil {
		return err
	}
	r.row("  %-6s %14s %14s %8s", "alg", "rebalance(s)", "partition(s)", "ratio")
	for _, alg := range chaos.Algorithms() {
		edges, n := graphFor(alg, s.StrongScale)
		rep, err := chaos.RunByName(alg, edges, n, s.options(m, n))
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		part := grid.Partition(cluster.SSD(m), edges, n)
		ratio := rep.RebalanceSeconds / part.Time.Seconds()
		r.row("  %-6s %14.3f %14.3f %8.2f", alg, rep.RebalanceSeconds, part.Time.Seconds(), ratio)
	}
	return nil
}
