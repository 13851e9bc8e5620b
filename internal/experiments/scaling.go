package experiments

import (
	"fmt"
	"sync"

	"chaos"
	"chaos/internal/cluster"
	"chaos/internal/xstream"
)

// table1 reproduces Table 1: single-machine runtime of every algorithm for
// X-Stream (direct I/O) and Chaos (client-server storage protocol).
func table1(r *report, s Scale) error {
	r.row("  %-10s %12s %12s %8s", "algorithm", "x-stream(s)", "chaos(s)", "ratio")
	spec := cluster.ScaleLatencies(cluster.SSD(1), chaos.LatencyScaleFor(s.ChunkBytes))
	xcfg := xstream.Config{Spec: spec, ChunkBytes: s.ChunkBytes}
	for _, alg := range chaos.Algorithms() {
		edges, n := graphFor(alg, s.StrongScale)
		rep, err := chaos.RunByName(alg, edges, n, s.options(1, n))
		if err != nil {
			return fmt.Errorf("chaos %s: %w", alg, err)
		}
		xt, err := xstreamByName(xcfg, alg, edges, n)
		if err != nil {
			return fmt.Errorf("x-stream %s: %w", alg, err)
		}
		r.row("  %-10s %12.2f %12.2f %8.2f", alg, xt, rep.SimulatedSeconds, rep.SimulatedSeconds/xt)
	}
	return nil
}

// figure5 reproduces Figure 5: theoretical storage utilization rho(m, k)
// for k in {1,2,3,5} over 1..32 machines (Equation 4).
func figure5(r *report, s Scale) error {
	r.row("  %-6s %10s %10s %10s %10s", "m", "k=1", "k=2", "k=3", "k=5")
	for _, m := range []int{1, 2, 4, 8, 16, 24, 32} {
		u := func(k float64) float64 { return chaos.TheoreticalUtilization(m, k) }
		r.row("  %-6d %10.4f %10.4f %10.4f %10.4f", m, u(1), u(2), u(3), u(5))
	}
	r.row("  asymptotic floors: k=1 %.4f, k=2 %.4f, k=3 %.4f, k=5 %.4f",
		chaos.UtilizationFloor(1), chaos.UtilizationFloor(2), chaos.UtilizationFloor(3), chaos.UtilizationFloor(5))
	return nil
}

// WeakScalingResult carries one weak-scaling sweep for reuse by Figure 14.
type WeakScalingResult struct {
	Machines []int
	// Reports[alg][i] is alg's run on Machines[i].
	Reports map[string][]*chaos.Report
}

// weakCache memoizes weak-scaling sweeps so that Figures 7 and 14, which
// plot different series of the same experiment, run it once. weakMu is
// held across a whole sweep, so a concurrent caller of the same sweep
// waits for it and then hits the cache.
var (
	weakMu    sync.Mutex
	weakCache = map[string]*WeakScalingResult{}
)

// RunWeakScaling performs the §9.1 experiment: problem size doubles with
// the machine count (RMAT-27 on 1 machine to RMAT-32 on 32 in the paper).
// Results are memoized per (scale, algorithm set); it is safe for
// concurrent use.
func RunWeakScaling(s Scale, algs []string) (*WeakScalingResult, error) {
	key := fmt.Sprintf("%+v|%v", s, algs)
	weakMu.Lock()
	defer weakMu.Unlock()
	if r, ok := weakCache[key]; ok {
		return r, nil
	}
	res := &WeakScalingResult{Machines: s.Machines, Reports: make(map[string][]*chaos.Report)}
	for _, alg := range algs {
		reps, err := runs(alg, s.Machines, weak(s, alg))
		if err != nil {
			return nil, err
		}
		res.Reports[alg] = reps
	}
	weakCache[key] = res
	return res, nil
}

// figure7 reproduces Figure 7: weak-scaling runtime normalized to one
// machine, all ten algorithms.
func figure7(r *report, s Scale) error {
	res, err := RunWeakScaling(s, chaos.Algorithms())
	if err != nil {
		return err
	}
	r.xAxis("machines", res.Machines)
	var sum float64
	for _, alg := range chaos.Algorithms() {
		reps := res.Reports[alg]
		vals := over(reps, reps[0].SimulatedSeconds)
		r.series(alg, vals, "%8.2f")
		sum += vals[len(vals)-1]
	}
	r.row("  mean normalized runtime at %d machines: %.2fx",
		res.Machines[len(res.Machines)-1], sum/float64(len(chaos.Algorithms())))
	return nil
}

// figure8 reproduces Figure 8: strong scaling on a fixed graph.
func figure8(r *report, s Scale) error {
	r.xAxis("machines", s.Machines)
	var sum float64
	for _, alg := range chaos.Algorithms() {
		reps, err := runs(alg, s.Machines, strong(s, alg))
		if err != nil {
			return err
		}
		base := reps[0].SimulatedSeconds
		vals := over(reps, base)
		r.series(alg, vals, "%8.3f")
		sum += base / (vals[len(vals)-1] * base)
	}
	r.row("  mean speedup at %d machines: %.1fx",
		s.Machines[len(s.Machines)-1], sum/float64(len(chaos.Algorithms())))
	return nil
}

// figure9 reproduces Figure 9: strong scaling on the (synthetic) Data
// Commons web graph from HDDs, BFS and PageRank.
func figure9(r *report, s Scale) error {
	edges := chaos.GenerateWebGraph(s.WebPages, 42)
	n := s.WebPages
	r.xAxis("machines", s.Machines)
	for _, alg := range []string{"BFS", "PR"} {
		reps, err := runs(alg, s.Machines, func(m int) input {
			opt := s.options(m, n)
			opt.Storage = chaos.HDD
			return input{edges, n, opt}
		})
		if err != nil {
			return err
		}
		vals := over(reps, reps[0].SimulatedSeconds)
		r.series(alg, vals, "%8.3f")
		r.row("  %s speedup at %d machines: %.1fx",
			alg, s.Machines[len(s.Machines)-1], 1/vals[len(vals)-1])
	}
	return nil
}
