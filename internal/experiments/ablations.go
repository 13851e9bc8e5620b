package experiments

import (
	"fmt"

	"chaos"
)

// ablationCombiner measures the Pregel-style update-aggregation trade-off
// the paper discusses in §11.1: merge cost against saved network traffic.
func ablationCombiner(r *report, s Scale) error {
	m := s.Machines[len(s.Machines)-1]
	r.row("  %-6s %12s %12s %12s %12s %10s",
		"alg", "plain(s)", "combined(s)", "plainMB", "combinedMB", "slowdown")
	for _, alg := range []string{"BFS", "WCC", "SSSP", "PR"} {
		edges, n := graphFor(alg, s.StrongScale)
		opt := s.options(m, n)
		plain, err := chaos.RunByName(alg, edges, n, opt)
		if err != nil {
			return fmt.Errorf("%s plain: %w", alg, err)
		}
		opt.CombineUpdates = true
		comb, err := chaos.RunByName(alg, edges, n, opt)
		if err != nil {
			return fmt.Errorf("%s combined: %w", alg, err)
		}
		r.row("  %-6s %12.4f %12.4f %12.1f %12.1f %9.2fx",
			alg, plain.SimulatedSeconds, comb.SimulatedSeconds,
			float64(plain.BytesWritten)/1e6, float64(comb.BytesWritten)/1e6,
			comb.SimulatedSeconds/plain.SimulatedSeconds)
	}
	return nil
}

// ablationCompaction measures the §6.1 extended model on MCST: dropping
// intra-component edges shrinks each Borůvka round's stream.
func ablationCompaction(r *report, s Scale) error {
	r.row("  %-9s %12s %12s %12s %12s %10s",
		"machines", "plain(s)", "compact(s)", "plainMB", "compactMB", "speedup")
	plain, err := runs("MCST", s.Machines, strong(s, "MCST"))
	if err != nil {
		return err
	}
	compact, err := runs("MCST", s.Machines, strong(s, "MCST", func(o *chaos.Options) { o.RewriteEdges = true }))
	if err != nil {
		return err
	}
	for i, m := range s.Machines {
		p, c := plain[i], compact[i]
		r.row("  %-9d %12.4f %12.4f %12.1f %12.1f %9.2fx",
			m, p.SimulatedSeconds, c.SimulatedSeconds,
			float64(p.BytesRead)/1e6, float64(c.BytesRead)/1e6,
			p.SimulatedSeconds/c.SimulatedSeconds)
	}
	return nil
}

// ablationReplication measures the §6.6 storage-fault-tolerance sketch:
// vertex sets mirrored on a second storage engine.
func ablationReplication(r *report, s Scale) error {
	m := s.Machines[len(s.Machines)-1]
	r.row("  %-6s %12s %12s %12s %12s %10s",
		"alg", "plain(s)", "mirrored(s)", "plainMB-W", "mirrorMB-W", "overhead")
	for _, alg := range []string{"BFS", "PR"} {
		edges, n := graphFor(alg, s.StrongScale)
		opt := s.options(m, n)
		plain, err := chaos.RunByName(alg, edges, n, opt)
		if err != nil {
			return fmt.Errorf("%s plain: %w", alg, err)
		}
		opt.ReplicateVertices = true
		mirr, err := chaos.RunByName(alg, edges, n, opt)
		if err != nil {
			return fmt.Errorf("%s mirrored: %w", alg, err)
		}
		r.row("  %-6s %12.4f %12.4f %12.1f %12.1f %9.1f%%",
			alg, plain.SimulatedSeconds, mirr.SimulatedSeconds,
			float64(plain.BytesWritten)/1e6, float64(mirr.BytesWritten)/1e6,
			100*(mirr.SimulatedSeconds/plain.SimulatedSeconds-1))
	}
	return nil
}

// ablationPartitionCount explores the §3 trade-off (sequential access
// against load balance) by varying the partition multiple k, partitions
// per machine, at the largest cluster.
func ablationPartitionCount(r *report, s Scale) error {
	m := s.Machines[len(s.Machines)-1]
	r.row("  %-10s %12s %12s %14s %10s", "k", "BFS(s)", "PR(s)", "steals(BFS)", "barrier%")
	for _, k := range []int{1, 2, 4, 8} {
		sk := s
		sk.PartitionsPerMachine = k
		var bfsSecs, prSecs float64
		var steals int
		var barrier float64
		for _, alg := range []string{"BFS", "PR"} {
			edges, n := graphFor(alg, s.StrongScale)
			rep, err := chaos.RunByName(alg, edges, n, sk.options(m, n))
			if err != nil {
				return fmt.Errorf("k=%d %s: %w", k, alg, err)
			}
			if alg == "BFS" {
				bfsSecs = rep.SimulatedSeconds
				steals = rep.StealsAccepted
				barrier = rep.Breakdown["barrier"]
			} else {
				prSecs = rep.SimulatedSeconds
			}
		}
		r.row("  %-10d %12.4f %12.4f %14d %9.1f%%", k, bfsSecs, prSecs, steals, 100*barrier)
	}
	return nil
}
