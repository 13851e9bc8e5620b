// Package chaos is a Go reproduction of Chaos (Roy, Bindschaedler,
// Malicevic, Zwaenepoel — SOSP 2015): scale-out graph processing from
// secondary storage.
//
// Chaos extends X-Stream's streaming partitions to a cluster with three
// synergistic techniques: partitioning only for sequential storage access,
// uniformly random placement of all graph data with no attempt at locality,
// and randomized work stealing that lets several machines process one
// partition. This package exposes the ten evaluation algorithms over a
// deterministic simulation of the paper's rack (devices, NICs and latencies
// are modeled; graph data and algorithm execution are real). See DESIGN.md
// for the hardware substitution argument and EXPERIMENTS.md for the
// reproduced evaluation.
//
// Quick start:
//
//	edges := chaos.GenerateRMAT(16, false, 42)
//	ranks, report, err := chaos.RunPageRank(edges, 0, 5, chaos.Options{Machines: 8})
package chaos

import (
	"math"

	"chaos/internal/cluster"
	"chaos/internal/core"
	"chaos/internal/core/drive"
	"chaos/internal/graph"
	"chaos/internal/metrics"
	"chaos/internal/rmat"
	"chaos/internal/webgraph"
)

// Edge is a directed edge with an optional weight.
type Edge = graph.Edge

// EdgeSource is an edge list read by position, in batches: an edge
// slice, a buffer of binary edge records, or a View of either.
type EdgeSource = graph.Source

// VertexID identifies a vertex; IDs are dense in [0, NumVertices).
type VertexID = graph.VertexID

// Storage selects the modeled storage device.
type Storage int

// Storage devices from the paper's testbed (§8).
const (
	// SSD models the 480 GB SSDs (400 MB/s).
	SSD Storage = iota
	// HDD models the 2x6 TB magnetic-disk RAID0 (200 MB/s).
	HDD
)

// Network selects the modeled interconnect.
type Network int

// Networks from the paper's evaluation.
const (
	// Net40GigE is the default 40 GigE top-of-rack switch.
	Net40GigE Network = iota
	// Net1GigE is the slow network of Figure 12, where the interconnect
	// becomes the bottleneck.
	Net1GigE
)

// Options configures a run. The zero value is a single 16-core machine
// with SSD storage and a 40 GigE network, the paper's defaults.
//
// This struct is the one declaration of every option. Its JSON tags are
// the job API's wire form and the journal's record form, and Fingerprint
// walks the fields in this order under those keys — so a field added
// here is in all three by construction (see DESIGN.md, "Options are
// declared once"). Reordering fields or renaming a key changes every
// cache key.
type Options struct {
	// Machines is the cluster size (default 1; the paper evaluates up
	// to 32).
	Machines int `json:"machines,omitempty"`
	// Storage picks SSD (default) or HDD.
	Storage Storage `json:"storage,omitempty"`
	// Network picks 40 GigE (default) or 1 GigE.
	Network Network `json:"network,omitempty"`
	// Cores per machine (default 16; Figure 10 sweeps 8..16).
	Cores int `json:"cores,omitempty"`
	// ChunkBytes is the chunk size (default 4 MB, §7). Benches use
	// smaller chunks with lab-scale graphs.
	ChunkBytes int `json:"chunkBytes,omitempty"`
	// VertexChunkBytes defaults to ChunkBytes.
	VertexChunkBytes int `json:"vertexChunkBytes,omitempty"`
	// MemBudgetBytes bounds one streaming partition's vertex set per
	// machine, determining the partition count (§3). Zero means
	// unconstrained (one partition per machine).
	MemBudgetBytes int64 `json:"memBudgetBytes,omitempty"`
	// MemoryBudgetMB bounds the native engine's resident update-set
	// memory, in MiB. Past the budget the update transport spills
	// overflowing buckets to temp files, each slab as the raw record
	// bytes it already is, and streams them back in deterministic fold
	// order — the out-of-core execution the paper runs from secondary
	// storage. The budget counts updates at their §8 record size. A resident record is that size exactly for
	// the eight algorithms with a 4-byte update payload on a graph
	// below 2^32 vertices (8 bytes either way); MCST's and MIS's
	// records are 24 bytes resident against 16 and 17 encoded, so their
	// resident ceiling is 1.5 and 1.4 times the option. What scatter
	// holds in flight comes on top (DESIGN.md, "One protocol, two
	// transports", has the sum). Zero means unlimited: nothing ever
	// spills. The sim engine accepts and ignores it: the
	// DES models storage, so every sim run is out-of-core by
	// construction.
	MemoryBudgetMB int64 `json:"memoryBudgetMB,omitempty"`
	// BatchK is the batch factor k of §6.5 (default 5).
	BatchK int `json:"batchK,omitempty"`
	// WindowOverride fixes the request window phi*k directly (Figure 16).
	WindowOverride int `json:"windowOverride,omitempty"`
	// Alpha biases the steal criterion (§10.2). Zero means the paper
	// default alpha = 1; set DisableStealing for alpha = 0 or
	// AlwaysSteal for alpha = infinity.
	Alpha float64 `json:"alpha,omitempty"`
	// DisableStealing turns work stealing off entirely.
	DisableStealing bool `json:"disableStealing,omitempty"`
	// AlwaysSteal accepts every steal proposal with work remaining.
	AlwaysSteal bool `json:"alwaysSteal,omitempty"`
	// CheckpointEvery enables vertex-state checkpoints every n
	// iterations (§6.6).
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
	// FailAtIteration injects a transient failure at the given 1-based
	// iteration (requires CheckpointEvery).
	FailAtIteration int `json:"failAtIteration,omitempty"`
	// CentralDirectory enables the Figure 15 centralized-metadata
	// baseline instead of randomized placement.
	CentralDirectory bool `json:"centralDirectory,omitempty"`
	// CombineUpdates applies Pregel-style update aggregation inside the
	// scatter buffers (§11.1) for algorithms that support it (BFS, WCC,
	// SSSP, PR). The paper found the merge cost outweighs the traffic
	// reduction; the ablation benchmark measures the trade.
	CombineUpdates bool `json:"combineUpdates,omitempty"`
	// RewriteEdges enables the §6.1 extended model for algorithms that
	// rewrite their edge set during computation (MCST drops
	// intra-component edges, shrinking later rounds).
	RewriteEdges bool `json:"rewriteEdges,omitempty"`
	// ReplicateVertices mirrors every vertex chunk on a second storage
	// engine, the storage-failure tolerance sketched in §6.6.
	ReplicateVertices bool `json:"replicateVertices,omitempty"`
	// MaxIterations caps the main loop.
	MaxIterations int `json:"maxIterations,omitempty"`
	// LatencyScale multiplies every fixed latency (device, network hop,
	// loopback). Laboratory runs that shrink ChunkBytes by some factor
	// should scale latencies by the same factor to preserve the paper's
	// latency-to-service-time ratios (see DESIGN.md). Zero means 1.
	LatencyScale float64 `json:"latencyScale,omitempty"`
	// ComputeWorkers bounds the host worker pool that runs per-chunk
	// compute off the simulation thread (0 = GOMAXPROCS). Results,
	// reports and simulated times are bit-identical for every value —
	// the knob only trades host wall-clock time.
	ComputeWorkers int `json:"computeWorkers,omitempty"`
	// Engine selects the execution plane: EngineSim (the default, also
	// "" or "des") runs the protocol under the deterministic
	// discrete-event simulation and reports virtual time; EngineNative
	// runs the same protocol as goroutine groups directly on the host —
	// results are identical up to floating-point fold order, the report
	// carries wall-clock instead of simulated seconds, and no
	// paper-facing performance claim is made (see DESIGN.md, "Two
	// planes, one protocol").
	Engine string `json:"engine,omitempty"`
	// NativeBarrier is accepted and ignored by both engines. It once
	// selected a second native phase schedule (every scatter before any
	// gather) whose values were bit-identical to the streamed one's and
	// whose wall-clock no measurement could tell apart (DESIGN.md,
	// "Streaming the phase boundary"); the schedule is gone. The field
	// keeps its place so stored journals and request bodies that carry
	// the key still decode and no other option's cache key moves;
	// Canonical folds it to false.
	NativeBarrier bool `json:"nativeBarrier,omitempty"`
	// Seed drives all randomized decisions; equal seeds reproduce runs
	// exactly.
	Seed int64 `json:"seed,omitempty"`
}

// Engine names accepted by Options.Engine (see ParseEngine).
const (
	// EngineSim is the discrete-event-simulation driver (internal/core):
	// virtual time, modeled hardware, the paper's evaluation plane.
	EngineSim = "sim"
	// EngineNative is the host-speed driver (internal/core/native):
	// goroutine groups, real chunks, wall-clock only.
	EngineNative = "native"
)

// config translates o's canonical form into the engine configuration,
// field by field: Canonical has already made every default explicit and
// folded the stealing knobs, so AlwaysSteal's alpha = +Inf is the one
// mapping left. ComputeWorkers is read from o because Canonical erases
// it from the cache key only.
func (o Options) config() core.Config {
	c := o.Canonical()
	spec := cluster.SSD(c.Machines)
	if c.Storage == HDD {
		spec = cluster.HDD(c.Machines)
	}
	if c.Network == Net1GigE {
		spec = cluster.GigE1(spec)
	}
	spec = cluster.WithCores(spec, c.Cores)
	if c.LatencyScale != 1 {
		spec = cluster.ScaleLatencies(spec, c.LatencyScale)
	}
	alpha := c.Alpha
	if c.AlwaysSteal {
		alpha = math.Inf(1)
	}
	return core.Config{
		Params: drive.Params{
			MemBudget:        c.MemBudgetBytes,
			ChunkBytes:       c.ChunkBytes,
			VertexChunkBytes: c.VertexChunkBytes,
			MaxIterations:    c.MaxIterations,
			CheckpointEvery:  c.CheckpointEvery,
			FailAtIteration:  c.FailAtIteration,
			CombineUpdates:   c.CombineUpdates,
			RewriteEdges:     c.RewriteEdges,
		},
		Spec:                 spec,
		BatchK:               c.BatchK,
		WindowOverride:       c.WindowOverride,
		Alpha:                alpha,
		TransportBudgetBytes: c.MemoryBudgetMB << 20,
		CentralDirectory:     c.CentralDirectory,
		ReplicateVertices:    c.ReplicateVertices,
		ComputeWorkers:       o.ComputeWorkers,
		Seed:                 c.Seed,
	}
}

// Report summarizes a run: simulated wall-clock (including pre-processing,
// as in the paper), I/O volumes and the Figure 17 breakdown.
//
// Engine records which driver executed the run. For EngineSim the
// *Seconds fields are virtual time and WallSeconds is zero (wall-clock
// varies run to run, and sim reports are bit-reproducible). For
// EngineNative there is no virtual clock: SimulatedSeconds and
// PreprocessSeconds are zero, WallSeconds is the host wall-clock of the
// whole run, and AggregateBandwidth is bytes moved per wall second.
type Report struct {
	Algorithm         string
	Machines          int
	Engine            string
	SimulatedSeconds  float64
	PreprocessSeconds float64
	// WallSeconds is the host wall-clock of a native run (zero under
	// the DES driver, whose reports must stay bit-reproducible).
	WallSeconds  float64
	Iterations   int
	BytesRead    int64
	BytesWritten int64
	// AggregateBandwidth is device bytes moved per simulated second
	// (Figure 14).
	AggregateBandwidth float64
	// DeviceUtilization is the mean storage-device utilization.
	DeviceUtilization float64
	StealsAccepted    int
	StealsRejected    int
	// Breakdown maps Figure 17 categories to runtime fractions.
	Breakdown map[string]float64
	// RebalanceSeconds is the worst-case per-machine dynamic load
	// balancing cost (Figure 20 numerator).
	RebalanceSeconds float64
	CheckpointBytes  int64
	Recoveries       int
	// SpillBytes / SpillFiles report the native engine's out-of-core
	// update traffic under Options.MemoryBudgetMB: bytes written to
	// spill files — update records at their in-memory size, the same as
	// encoded for a 4-byte payload and 1.5 / 1.4 times it for MCST / MIS
	// — and spill files created. Zero when the budget is unlimited and
	// always zero for the sim engine.
	SpillBytes int64
	SpillFiles int
}

func reportFrom(run *metrics.Run, machines int) *Report {
	r := &Report{
		Algorithm:          run.Algorithm,
		Machines:           machines,
		Engine:             EngineSim,
		SimulatedSeconds:   run.Runtime.Seconds(),
		PreprocessSeconds:  run.Preprocess.Seconds(),
		Iterations:         run.Iterations,
		BytesRead:          run.BytesRead,
		BytesWritten:       run.BytesWritten,
		AggregateBandwidth: run.AggregateBandwidth(),
		DeviceUtilization:  run.DeviceUtilization,
		StealsAccepted:     run.StealsAccepted,
		StealsRejected:     run.StealsRejected,
		Breakdown:          make(map[string]float64),
		RebalanceSeconds:   run.RebalanceTime().Seconds(),
		CheckpointBytes:    run.CheckpointBytes,
		Recoveries:         run.Recoveries,
		SpillBytes:         run.SpillBytes,
		SpillFiles:         run.SpillFiles,
	}
	for _, c := range metrics.Categories() {
		r.Breakdown[c.String()] = run.Fraction(c)
	}
	return r
}

// nativeReportFrom shapes a native run's metrics: the driver stores host
// wall-clock in the Run's time fields, so they move to WallSeconds and
// the virtual-time fields stay zero — a native report never claims
// simulated seconds (EXPERIMENTS.md keeps the figures DES-only).
func nativeReportFrom(run *metrics.Run, machines int) *Report {
	r := reportFrom(run, machines)
	r.Engine = EngineNative
	r.WallSeconds = run.Runtime.Seconds()
	r.SimulatedSeconds = 0
	r.PreprocessSeconds = 0
	return r
}

// GenerateRMAT produces a scale-n R-MAT graph (2^n vertices, 2^(n+4)
// edges), the synthetic workload of the evaluation (§8). It panics, with
// rmat.CheckScale's error and before allocating, on a scale outside
// [1,30], the range every R-MAT entry point generates.
func GenerateRMAT(scale int, weighted bool, seed int64) []Edge {
	if err := rmat.CheckScale(scale); err != nil {
		panic("chaos: " + err.Error())
	}
	g := rmat.New(scale, seed)
	g.Weighted = weighted
	return g.Generate()
}

// GenerateWebGraph produces a synthetic hyperlink graph with Data-Commons-
// like skew (the paper's real-world workload stand-in; see DESIGN.md).
func GenerateWebGraph(pages uint64, seed int64) []Edge {
	return webgraph.New(pages, seed).Generate()
}

// Undirected returns edges plus their reverses, the conversion §8 applies
// for the undirected algorithms (BFS, WCC, MCST, MIS, SSSP).
func Undirected(edges []Edge) []Edge { return graph.Undirected(edges) }

// NumVertices returns one past the largest vertex ID in edges, or 0 when
// no count covers them: edges is empty or names vertex 2^64−1.
func NumVertices(edges []Edge) uint64 { return graph.MaxVertex(edges) }

// TheoreticalUtilization returns rho(m, k) = 1 - (1 - k/m)^m, the storage
// utilization bound of Equation 4 plotted in Figure 5.
func TheoreticalUtilization(machines int, batchK float64) float64 {
	return core.Utilization(machines, batchK)
}

// UtilizationFloor returns the asymptotic bound 1 - e^-k of Equation 5.
func UtilizationFloor(batchK float64) float64 { return core.UtilizationFloor(batchK) }
