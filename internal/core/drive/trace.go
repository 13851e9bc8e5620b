package drive

// Flight-recorder trace hook. Both drivers feed the same span stream:
// one Span per (machine, phase, partition) unit of work, emitted at the
// instant the work finishes. The hook is observational-only by the same
// argument as the progress callback — it reads counters the driver has
// already settled and cannot reach a clock, an RNG or a mailbox — so a
// run with a subscriber is bit-identical to one without (the DES
// driver's virtual clock included; see TestTraceDeterminism).
//
// Time base: under the DES driver Start/Dur are virtual nanoseconds
// (the simulation clock); under the native driver they are host
// wall-clock nanoseconds since the run started. Spans from one run
// always share one base, so a timeline view needs no unit switch.

// Phase labels carried by Span.Phase.
const (
	// PhasePreprocess is the §3 input pass: edge binning, degree
	// exchange, vertex-set initialization. Emitted with Iter == -1
	// (pre-processing precedes iteration 0).
	PhasePreprocess = "preprocess"
	// PhaseScatter is one partition's scatter work (§5.1): vertex load,
	// edge streaming, update encoding and spilling.
	PhaseScatter = "scatter"
	// PhaseGather is one partition's gather work (§5.2): vertex load,
	// update streaming, accumulator folds.
	PhaseGather = "gather"
	// PhaseApply is one partition's apply wrap-up (§5.3): stealer
	// accumulator merges, the Apply loop, vertex write-back.
	PhaseApply = "apply"
	// PhaseSteal summarizes one machine's steal sweep in a phase: how
	// many proposals were accepted and rejected, and how long the sweep
	// ran. Emitted with Part == -1 (the sweep spans partitions).
	PhaseSteal = "steal"
	// PhaseSpill summarizes the update chunks a partition's scatter
	// merge pushed over the transport's memory budget onto spill
	// storage: BytesOut is the bytes written, the spilled records at
	// their resident size (TransportStats.SpillBytes), Chunks the chunks
	// spilled, and the span brackets the merge during which the
	// overflow happened. Only the native driver's spilling transport
	// emits it (the DES models storage instead of spilling to it).
	PhaseSpill = "spill"
)

// Span is one flight-recorder record: a unit of per-machine work with
// its time range and the byte/chunk/steal tallies it settled. JSON tags
// are the wire form GET /v1/jobs/{id}/trace serves.
type Span struct {
	// Iter is the 0-based iteration, or -1 for pre-processing.
	Iter int `json:"iter"`
	// Machine is the computation engine that did the work.
	Machine int `json:"machine"`
	// Part is the partition worked on, or -1 for machine-scoped spans
	// (preprocess, steal sweeps).
	Part int `json:"part"`
	// Phase is one of the Phase* labels above.
	Phase string `json:"phase"`
	// Stolen marks work done on another master's partition.
	Stolen bool `json:"stolen,omitempty"`
	// Start/Dur are nanoseconds — virtual under the DES driver, host
	// wall-clock since run start under the native driver.
	Start int64 `json:"startNs"`
	Dur   int64 `json:"durNs"`
	// Chunks counts edge/update chunks streamed through the span.
	Chunks int `json:"chunks,omitempty"`
	// BytesIn / BytesOut are the bytes decoded into and encoded out of
	// the span's work (vertex loads and chunk streams in; update spills
	// and vertex write-backs out).
	BytesIn  int64 `json:"bytesIn,omitempty"`
	BytesOut int64 `json:"bytesOut,omitempty"`
	// StealsAccepted / StealsRejected are the verdicts of a PhaseSteal
	// sweep's proposals.
	StealsAccepted int `json:"stealsAccepted,omitempty"`
	StealsRejected int `json:"stealsRejected,omitempty"`
}

// TraceFn receives spans as the run settles them. Under the DES driver
// it is invoked from the single simulation goroutine; under the native
// driver concurrently from every machine goroutine, so implementations
// must be safe for concurrent use (the obs.Ring recorder is). Keep it
// cheap: a slow callback stalls host wall-clock, never simulated time
// or results.
type TraceFn func(Span)

// Progress is a live snapshot of a running job, reported at each
// iteration boundary — the decision point, where Params.Interrupt is
// polled too. Subscribing is guaranteed not to perturb the run: the
// driver hands over counters the decision point has already settled,
// and the callback cannot reach the run's RNG, clock or event order, so
// results, reports and the virtual clock are bit-identical with and
// without a subscriber (TestProgressDoesNotPerturbRun). The final
// snapshot of a converged run matches its metrics. JSON tags are the
// job API's wire form.
type Progress struct {
	// Iterations counts completed iterations (1 at the first boundary).
	Iterations int `json:"iterations"`
	// SimulatedSeconds is the DES driver's virtual clock at the
	// boundary; zero under the native driver, which has none.
	SimulatedSeconds float64 `json:"simulatedSeconds"`
	// WallSeconds is the host wall-clock since the run started, filled
	// by the native driver only (zero under the DES driver, whose
	// progress stream stays bit-reproducible).
	WallSeconds float64 `json:"wallSeconds,omitempty"`
	// BytesRead / BytesWritten are device-level totals so far.
	BytesRead    int64 `json:"bytesRead"`
	BytesWritten int64 `json:"bytesWritten"`
	// StealsAccepted counts steal proposals accepted so far.
	StealsAccepted int `json:"stealsAccepted"`
	// StealsRejected counts steal proposals the §5.4 criterion turned
	// down so far.
	StealsRejected int `json:"stealsRejected"`
	// SpillBytes counts bytes the native driver's update transport has
	// written to spill files so far, records at their in-memory size
	// (TransportStats.SpillBytes; always zero under the DES driver,
	// whose simulated storage accounts bytes in BytesRead/BytesWritten).
	SpillBytes int64 `json:"spillBytes,omitempty"`
}
