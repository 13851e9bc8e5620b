package experiments

import (
	"fmt"
	"math"
	"slices"
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
	vals := make([]float64, len(res.Machines))
	for _, alg := range chaos.Algorithms() {
		reps := res.Reports[alg]
		for i, rep := range reps {
			vals[i] = rep.AggregateBandwidth / reps[0].AggregateBandwidth
		}
		r.series(alg, vals, "%8.2f")
	}
	// The devices' theoretical maximum is linear in machines.
	for i, m := range res.Machines {
		vals[i] = float64(m) / float64(res.Machines[0])
	}
	r.series("max", vals, "%8.2f")
	return nil
}

// figure15 reproduces Figure 15: randomized placement vs a centralized
// chunk directory.
func figure15(r *report, s Scale) error {
	r.xAxis("machines", s.Machines)
	for _, alg := range []string{"BFS", "PR"} {
		for _, central := range []bool{false, true} {
			reps, err := runs(alg, s.Machines, weak(s, alg, func(o *chaos.Options) { o.CentralDirectory = central }))
			if err != nil {
				return err
			}
			name := alg
			if central {
				name += " central"
			}
			r.series(name, over(reps, reps[0].SimulatedSeconds), "%8.2f")
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
		largest := strong(s, alg)(m)
		reps, err := runs(alg, windows, func(pk int) input {
			in := largest
			in.opt.WindowOverride = pk
			return in
		})
		if err != nil {
			return err
		}
		r.cells("  %-10s", alg, " %8.2f", over(reps, reps[slices.Index(windows, 10)].SimulatedSeconds))
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
	alphas := []float64{0, 0.8, 1.0, 1.2, math.Inf(1)}
	r.row("  %-6s %8s %8s %8s %8s %8s", "alg", "a=0", "a=0.8", "a=1", "a=1.2", "a=inf")
	for _, alg := range []string{"BFS", "PR"} {
		largest := weak(s, alg)(m)
		reps, err := runs(alg, alphas, func(a float64) input {
			in := largest
			switch {
			case a == 0:
				in.opt.DisableStealing = true
			case math.IsInf(a, 1):
				in.opt.AlwaysSteal = true
			default:
				in.opt.Alpha = a
			}
			return in
		})
		if err != nil {
			return err
		}
		r.cells("  %-6s", alg, " %8.3f", over(reps, reps[slices.Index(alphas, 1.0)].SimulatedSeconds))
	}
	return nil
}

// figure19 reproduces Figure 19: Chaos vs the Giraph baseline on PageRank,
// each normalized to its own single-machine runtime.
func figure19(r *report, s Scale) error {
	r.xAxis("machines", s.Machines)
	reps, err := runs("PR", s.Machines, strong(s, "PR"))
	if err != nil {
		return err
	}
	chaosVals := over(reps, reps[0].SimulatedSeconds)
	r.series("Chaos", chaosVals, "%8.3f")

	edges, n := graphFor("PR", s.StrongScale)
	var giraphBase float64
	var giraphVals []float64
	for i, m := range s.Machines {
		spec := cluster.ScaleLatencies(cluster.SSD(m), chaos.LatencyScaleFor(s.ChunkBytes))
		res, err := giraph.RunPageRank(spec, edges, n)
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
