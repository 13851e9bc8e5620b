// Package core implements the Chaos runtime (§4-§6): per-machine
// computation and storage engines exchanging chunk requests over a
// simulated cluster, streaming-partition scatter/gather with randomized
// work stealing, batched storage access, checkpointing, and the runtime
// accounting the paper's evaluation reports.
//
// The engine executes the real protocol over real graph data inside a
// deterministic discrete-event simulation: algorithm results are exact,
// virtual time reproduces the paper's performance behaviour (see
// DESIGN.md for the hardware substitution argument).
package core

import (
	"fmt"
	"math"

	"chaos/internal/cluster"
	"chaos/internal/core/drive"
	"chaos/internal/sim"
)

// Config parameterizes one Chaos run.
type Config struct {
	// Spec describes the cluster hardware.
	Spec cluster.Spec
	// ChunkBytes is the edge/update chunk size; the paper uses 4 MB
	// blocks (§7). Benches use smaller chunks with smaller graphs to
	// preserve the chunk-per-partition ratio.
	ChunkBytes int
	// VertexChunkBytes is the vertex-set chunk size (defaults to
	// ChunkBytes).
	VertexChunkBytes int
	// BatchK is the batch factor k: the number of requests kept
	// outstanding at storage engines. The paper's sweet spot is k=5
	// (99.3%+ utilization regardless of cluster size, §6.5).
	BatchK int
	// WindowOverride, when positive, fixes the request window phi*k
	// directly (the Figure 16 sweep).
	WindowOverride int
	// Alpha is the work-stealing bias of §10.2: 0 disables stealing, 1
	// is the analytic criterion, math.Inf(1) always steals.
	Alpha float64
	// MemBudget is the per-machine memory available for one partition's
	// vertex set; it determines the partition count (§3). Zero means
	// unconstrained (one partition per machine).
	MemBudget int64
	// TransportBudgetBytes bounds the update transport's resident
	// memory on the native driver: past it, overflowing buckets are
	// spilled as raw record slabs to temp files under SpillDir, streamed back
	// in deterministic fold order (out-of-core mode). Zero means
	// unbounded: the same transport with a budget no Put reaches, which
	// never writes a byte (drive.Kernel.NewMemTransport). The DES driver
	// ignores it: simulated storage makes every DES run out-of-core by
	// construction.
	TransportBudgetBytes int64
	// SpillDir is the parent directory for the native driver's spill
	// files ("" = the OS temp dir). Operational, not semantic: it never
	// affects results and is deliberately absent from option
	// fingerprints.
	SpillDir string
	// MaxIterations caps the main loop (safety net; 0 means 1000).
	MaxIterations int
	// CheckpointEvery enables vertex-state checkpoints at every n-th
	// iteration boundary using the 2-phase protocol of §6.6 (0 = off).
	CheckpointEvery int
	// FailAtIteration injects one transient machine failure at the start
	// of the given 1-based iteration; the run then recovers from the last
	// checkpoint (requires CheckpointEvery > 0).
	FailAtIteration int
	// CentralDirectory replaces randomized chunk placement with the
	// centralized metadata server of the Figure 15 baseline.
	CentralDirectory bool
	// CombineUpdates applies the program's Combiner (if implemented)
	// inside scatter buffers, the Pregel-style aggregation of §11.1.
	CombineUpdates bool
	// RewriteEdges enables the §6.1 extended model for programs
	// implementing gas.EdgeRewriter: scatter materializes a rewritten
	// next-generation edge set that replaces the old one each iteration.
	// Incompatible with checkpoint rollback and the central directory.
	RewriteEdges bool
	// ReplicateVertices mirrors every vertex chunk on a second storage
	// engine (§6.6: tolerating storage failures "could easily be added
	// by replicating the vertex sets").
	ReplicateVertices bool
	// ComputeWorkers bounds the worker pool that executes per-chunk
	// compute (decode, GAS kernel, update encoding) off the simulation
	// thread. Zero means GOMAXPROCS. Results, metrics and simulated
	// times are bit-identical for every worker count (see parallel.go);
	// the knob only trades wall-clock time.
	ComputeWorkers int
	// Seed selects the random stream for placement, stealing order and
	// request routing.
	Seed int64
	// Interrupt, when non-nil, is polled at each iteration boundary
	// (machine 0's decision point). When it returns true the run stops
	// cleanly at that boundary — in-flight chunk work drains, the
	// simulation unwinds — and Run returns ErrInterrupted. The job
	// service wires a context's Done check here so DELETE on a running
	// job is observed between iterations.
	Interrupt func() bool
	// Progress, when non-nil, is called at the same iteration boundary
	// Interrupt is polled at, with a snapshot of the run's counters so
	// far. The callback only observes state the decision point has
	// already settled — it draws no randomness, consumes no virtual
	// time, and cannot reorder simulated events — so subscribing is
	// guaranteed not to change results, reports or the virtual clock
	// (TestProgressDoesNotPerturbRun). It runs on the simulation
	// goroutine: a slow callback stalls host wall-clock, never
	// simulated time.
	Progress func(Progress)
	// Trace, when non-nil, receives one drive.Span per unit of
	// per-machine work (preprocess, scatter/gather/apply per partition,
	// steal sweeps) the moment the engine settles it. Like Progress the
	// hook is observational-only: it is handed already-settled tallies
	// and cannot reach the run's RNG, clock or mailboxes, so attaching
	// a recorder leaves results, reports and the virtual clock
	// bit-identical (TestTraceDoesNotPerturbRun). Under this driver the
	// callback always runs on the simulation goroutine; the native
	// driver invokes it concurrently from machine goroutines, so shared
	// recorders must be safe for concurrent use (obs.Ring is).
	Trace drive.TraceFn
}

// Progress is the point-in-time counter snapshot handed to
// Config.Progress at each iteration boundary. The final snapshot of a
// converged run matches the run's metrics (same Iterations, bytes and
// steal totals at the last decision point).
type Progress struct {
	// Iterations counts completed iterations (1 at the first boundary).
	Iterations int
	// Now is the virtual clock at the decision point.
	Now sim.Time
	// BytesRead / BytesWritten are the device-level totals so far.
	BytesRead, BytesWritten int64
	// StealsAccepted counts steal proposals accepted so far.
	StealsAccepted int
	// StealsRejected counts steal proposals the §5.4 criterion turned
	// down so far.
	StealsRejected int
	// SpillBytes counts bytes the native driver's update transport has
	// written to spill storage so far, records at their in-memory size
	// (metrics.Run.SpillBytes; always 0 under the DES driver, whose
	// simulated storage engines account bytes in BytesRead/BytesWritten
	// instead).
	SpillBytes int64
}

// DefaultConfig returns the paper's defaults on the given hardware.
func DefaultConfig(spec cluster.Spec) Config {
	return Config{
		Spec:       spec,
		ChunkBytes: 4 << 20,
		BatchK:     5,
		Alpha:      1,
		Seed:       1,
	}
}

// Normalize validates the configuration and fills engine defaults in
// place. The DES driver applies it on entry to Run; sibling drivers
// (internal/core/native) call it so every driver agrees on defaults and
// rejects the same invalid configurations.
func (c *Config) Normalize() error {
	if c.Spec.Machines <= 0 {
		return fmt.Errorf("core: config needs at least one machine")
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 4 << 20
	}
	if c.VertexChunkBytes <= 0 {
		c.VertexChunkBytes = c.ChunkBytes
	}
	if c.BatchK <= 0 {
		c.BatchK = 5
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 1000
	}
	if c.FailAtIteration > 0 && c.CheckpointEvery <= 0 {
		return fmt.Errorf("core: failure injection requires checkpointing")
	}
	if c.RewriteEdges && c.CentralDirectory {
		return fmt.Errorf("core: edge rewriting is not supported with the central directory baseline")
	}
	if c.RewriteEdges && c.FailAtIteration > 0 {
		return fmt.Errorf("core: edge rewriting cannot roll back; disable failure injection")
	}
	return nil
}

// Params is the clock-free slice of a normalized configuration: what the
// protocol's policy in internal/core/drive depends on under any driver.
func (c *Config) Params() drive.Params {
	return drive.Params{
		Machines:         c.Spec.Machines,
		MemBudget:        c.MemBudget,
		ChunkBytes:       c.ChunkBytes,
		VertexChunkBytes: c.VertexChunkBytes,
		MaxIterations:    c.MaxIterations,
		CheckpointEvery:  c.CheckpointEvery,
		FailAtIteration:  c.FailAtIteration,
		CombineUpdates:   c.CombineUpdates,
		RewriteEdges:     c.RewriteEdges,
		Interrupt:        c.Interrupt,
	}
}

// window returns the request window phi*k (Equation 3): large enough that
// k requests are at the storage engines despite Rnetwork in-transit time.
func (c *Config) window(clu *cluster.Cluster) int {
	if c.WindowOverride > 0 {
		return c.WindowOverride
	}
	w := int(math.Ceil(clu.Phi(int64(c.ChunkBytes)) * float64(c.BatchK)))
	if w < 1 {
		w = 1
	}
	return w
}

// Utilization returns the theoretical storage-engine utilization
// rho(m, k) = 1 - (1 - k/m)^m of Equation 4, for m machines and batch
// factor k. For k >= m utilization is 1.
func Utilization(m int, k float64) float64 {
	if float64(m) <= k {
		return 1
	}
	return 1 - math.Pow(1-k/float64(m), float64(m))
}

// UtilizationFloor returns the m -> infinity lower bound 1 - e^-k of
// Equation 5.
func UtilizationFloor(k float64) float64 { return 1 - math.Exp(-k) }
