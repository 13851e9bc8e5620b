// Package experiments regenerates every table and figure of the Chaos
// evaluation (SOSP 2015, §8-§10) at laboratory scale: the same sweeps, the
// same normalizations and the same comparisons, run against the simulated
// rack described in DESIGN.md. Absolute numbers differ from the paper's
// testbed; shapes, winners and crossovers are the reproduction target.
// Every experiment is declared once, in table.go; EXPERIMENTS.md's table
// is held to that declaration.
//
// What the experiments print is also recorded (report.go) and the record
// is committed and compared by equality
// (TestEveryExperimentRunsAtQuickScale), so rows are emitted from slices
// in a fixed order, never by ranging a map.
package experiments

import (
	"fmt"

	"chaos"
)

// Scale selects the experiment size. Lab is sized so the full suite runs
// in a couple of minutes inside the discrete-event simulation.
type Scale struct {
	// WeakBase is the RMAT scale run on one machine in weak-scaling
	// sweeps (doubling per doubling of machines, as RMAT-27..32 in §9.1).
	WeakBase int
	// StrongScale is the fixed RMAT scale of strong-scaling sweeps
	// (RMAT-27 in §9.2).
	StrongScale int
	// WebPages is the synthetic Data Commons page count (§9.2).
	WebPages uint64
	// Machines is the cluster-size sweep (1..32 in the paper).
	Machines []int
	// ChunkBytes scales the 4 MB chunk down with the graphs.
	ChunkBytes int
	// PartitionsPerMachine forces the streaming-partition multiple.
	PartitionsPerMachine int
	// Storage and Network set the default modeled hardware for every
	// experiment (chaos-bench -storage/-network); experiments that sweep
	// a device still apply their own override on top.
	Storage chaos.Storage
	Network chaos.Network
	// Name labels the scale: figures.<Name>.json.
	Name string
	// ComputeWorkers bounds the engine's host worker pool (0 =
	// GOMAXPROCS); chaos-bench -workers. Simulated results are identical
	// for every value, only wall-clock changes.
	ComputeWorkers int
}

// Lab is the default laboratory scale, calibrated so that chunk counts per
// partition stay large enough for the randomized protocol to behave as it
// does at paper scale, while the whole suite still runs in minutes.
var Lab = Scale{
	Name:                 "lab",
	WeakBase:             10,
	StrongScale:          12,
	WebPages:             1 << 14,
	Machines:             []int{1, 2, 4, 8, 16, 32},
	ChunkBytes:           1 << 10,
	PartitionsPerMachine: 2,
}

// Quick is a reduced scale for smoke tests.
var Quick = Scale{
	Name:                 "quick",
	WeakBase:             8,
	StrongScale:          9,
	WebPages:             1 << 11,
	Machines:             []int{1, 4, 16},
	ChunkBytes:           1 << 10,
	PartitionsPerMachine: 2,
}

// options builds run options for m machines over a graph with n vertices
// whose vertex records occupy roughly vbytes.
func (s Scale) options(m int, n uint64) chaos.Options {
	const vbytes = 8
	budget := int64(n)*vbytes/int64(s.PartitionsPerMachine*m) + vbytes
	return chaos.Options{
		Machines:       m,
		Storage:        s.Storage,
		Network:        s.Network,
		ChunkBytes:     s.ChunkBytes,
		MemBudgetBytes: budget,
		LatencyScale:   chaos.LatencyScaleFor(s.ChunkBytes),
		ComputeWorkers: s.ComputeWorkers,
		Seed:           1,
	}
}

// graphFor generates the RMAT input for one algorithm at the given scale.
func graphFor(alg string, scale int) ([]chaos.Edge, uint64) {
	edges := chaos.GenerateRMAT(scale, chaos.NeedsWeights(alg), 42)
	return edges, uint64(1) << uint(scale)
}

// input is one run: a graph and the options it runs under.
type input struct {
	edges []chaos.Edge
	n     uint64
	opt   chaos.Options
}

// runs is the evaluation's one sweep loop: it runs alg once per point, on
// the input at(point) names, and returns the reports in point order.
func runs[P any](alg string, points []P, at func(P) input) ([]*chaos.Report, error) {
	reps := make([]*chaos.Report, len(points))
	for i, p := range points {
		in := at(p)
		rep, err := chaos.RunByName(alg, in.edges, in.n, in.opt)
		if err != nil {
			return nil, fmt.Errorf("%s at %v: %w", alg, p, err)
		}
		reps[i] = rep
	}
	return reps, nil
}

// strong is the strong-scaling axis (§9.2): alg's fixed StrongScale graph
// on m machines at point m, under each mutation in order.
func strong(s Scale, alg string, mutate ...func(*chaos.Options)) func(m int) input {
	edges, n := graphFor(alg, s.StrongScale)
	return func(m int) input {
		opt := s.options(m, n)
		for _, f := range mutate {
			f(&opt)
		}
		return input{edges, n, opt}
	}
}

// weak is the weak-scaling axis (§9.1): RMAT-(WeakBase + log2 m) on m
// machines at point m, under each mutation in order.
func weak(s Scale, alg string, mutate ...func(*chaos.Options)) func(m int) input {
	return func(m int) input {
		edges, n := graphFor(alg, s.WeakBase+log2(m))
		opt := s.options(m, n)
		for _, f := range mutate {
			f(&opt)
		}
		return input{edges, n, opt}
	}
}

// over normalizes a sweep: each report's simulated seconds over base.
func over(reps []*chaos.Report, base float64) []float64 {
	vals := make([]float64, len(reps))
	for i, rep := range reps {
		vals[i] = rep.SimulatedSeconds / base
	}
	return vals
}

func log2(m int) int {
	n := 0
	for 1<<uint(n) < m {
		n++
	}
	return n
}
