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
)

// Paper defaults a run falls back to (DefaultConfig, Normalize).
const (
	// PaperChunkBytes is the 4 MB block of §7.
	PaperChunkBytes = 4 << 20
	// PaperBatchK is the batch factor k = 5 of §6.5: 99.3%+ storage
	// utilization regardless of cluster size.
	PaperBatchK = 5
	// DefaultMaxIterations caps the main loop when nothing else does
	// (a safety net; every program converges or counts its own rounds).
	DefaultMaxIterations = 1000
)

// Config parameterizes one Chaos run. The embedded drive.Params is the
// clock-free part the protocol's policy reads under either driver, and
// the embedded drive.Env what the run is lent without it changing a
// value; the fields declared here are the hardware and each driver's own
// knobs.
type Config struct {
	drive.Params
	drive.Env
	// Spec describes the cluster hardware.
	Spec cluster.Spec
	// BatchK is the batch factor k: the number of requests kept
	// outstanding at storage engines (§6.5).
	BatchK int
	// WindowOverride, when positive, fixes the request window phi*k
	// directly (the Figure 16 sweep).
	WindowOverride int
	// Alpha is the work-stealing bias of §10.2: 0 disables stealing, 1
	// is the analytic criterion, math.Inf(1) always steals.
	Alpha float64
	// TransportBudgetBytes bounds the update transport's resident
	// memory on the native driver: past it, overflowing buckets are
	// spilled as raw record slabs to temp files under SpillDir, streamed back
	// in deterministic fold order (out-of-core mode). Zero means
	// unbounded: the same transport with a budget no Put reaches, which
	// never writes a byte (drive.Kernel.NewMemTransport). The DES driver
	// ignores it: simulated storage makes every DES run out-of-core by
	// construction.
	TransportBudgetBytes int64
	// CentralDirectory replaces randomized chunk placement with the
	// centralized metadata server of the Figure 15 baseline.
	CentralDirectory bool
	// ReplicateVertices mirrors every vertex chunk on a second storage
	// engine (§6.6: tolerating storage failures "could easily be added
	// by replicating the vertex sets").
	ReplicateVertices bool
	// ComputeWorkers bounds the worker pool that executes per-chunk
	// compute (edge decode, the scatter kernel, gather folds) off the
	// simulation thread. Zero means GOMAXPROCS. Results, metrics and simulated
	// times are bit-identical for every worker count (see parallel.go);
	// the knob only trades wall-clock time.
	ComputeWorkers int
	// Seed selects the random stream for placement, stealing order and
	// request routing.
	Seed int64
}

// DefaultConfig returns the paper's defaults on the given hardware.
func DefaultConfig(spec cluster.Spec) Config {
	return Config{
		Params: drive.Params{ChunkBytes: PaperChunkBytes},
		Spec:   spec,
		BatchK: PaperBatchK,
		Alpha:  1,
		Seed:   1,
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
	c.Machines = c.Spec.Machines
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = PaperChunkBytes
	}
	if c.VertexChunkBytes <= 0 {
		c.VertexChunkBytes = c.ChunkBytes
	}
	if c.BatchK <= 0 {
		c.BatchK = PaperBatchK
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = DefaultMaxIterations
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
