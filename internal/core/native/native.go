// Package native is the second driver of the Chaos protocol: it executes
// the same data plane as internal/core — streaming partitions, chunked
// update sets, the GAS kernels of internal/core/drive, work stealing by
// the §5.4 criterion, checkpoint/recovery decisions — but directly on the
// host instead of under the discrete-event simulation. Machines are
// goroutine groups, vertex state is resident typed memory, update chunks
// move through shared per-(source, destination) buckets with
// completion-signaled hand-off, and the only clock is host wall-clock:
// nothing charges virtual time.
//
// What the native driver does and does not validate (see DESIGN.md, "Two
// planes, one protocol"): algorithm results are exact and are tested
// against internal/refalgo exactly like the DES driver's; performance
// numbers are host wall-clock with no claim of reproducing the paper's
// testbed. The evaluation figures remain DES-only.
//
// Determinism: for a fixed seed the final vertex values are reproducible
// run to run — every order that reaches a floating-point fold is fixed
// (edge chunks are binned per machine and concatenated in machine order;
// update chunks fold in (source partition, chunk) order; combiner
// flushes sort destinations). Which goroutine processes which partition
// varies with host scheduling, but partition processing is
// order-independent by the same GAS argument the paper relies on, so
// only the steal counters are scheduling-dependent. Streaming the
// scatter→gather boundary (runIteration) keeps that argument intact
// because the fold order, not the phase order, is what the float folds
// see.
package native

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"chaos/internal/core"
	"chaos/internal/core/drive"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/metrics"
	"chaos/internal/partition"
	"chaos/internal/sim"
	"chaos/internal/storage"
)

// Run executes prog over the given unsorted edge list natively and
// returns the final vertex values plus runtime statistics. The returned
// metrics mirror the DES driver's shape, with wall-clock durations in
// the time fields (Runtime, Preprocess) — callers that report "simulated
// seconds" must not source them from a native run.
func Run[V, U, A any](cfg core.Config, prog gas.Program[V, U, A], edges graph.Source, numVertices uint64) ([]V, *metrics.Run, error) {
	r, err := newRun(cfg, prog, edges, numVertices)
	if err != nil {
		return nil, nil, err
	}
	if err := r.execute(edges); err != nil {
		return nil, nil, err
	}
	if r.dec.Interrupted() {
		// The partial vertex state is not a result anyone asked for.
		return nil, nil, core.ErrInterrupted
	}
	return r.kern.CollectVertices(r.verts), r.rmet, nil
}

// run carries the state of one native execution.
type run[V, U, A any] struct {
	cfg  core.Config
	prog gas.Program[V, U, A]
	// kern (data plane) and dec (decision point, §6.6 checkpoint) are
	// shared with the DES driver: internal/core/drive.
	kern   *drive.Kernel[V, U, A]
	dec    *drive.Decider[V, U, A]
	layout *partition.Layout
	pool   *drive.Pool
	nm     int

	// The resident vertex store. verts[p] holds partition p's decoded
	// vertex values, live across phases and iterations — the producer
	// and consumer share an address space, so the vertex set crosses no
	// boundary and is never encoded at rest. kern.VCodec runs only where
	// bytes genuinely move: checkpoint shadow copies (§6.6) and their
	// restore. Partition p's values are written by gather(p)'s Apply and
	// read by scatter(p); the scatter-completion signal plus the
	// iteration barrier order those accesses (see runIteration).
	verts [][]V
	// edges[p] holds partition p's current-generation encoded edge
	// chunks; edgesNext[p] the rewritten next generation under the §6.1
	// extended model. One writer per slot per iteration, promoted at the
	// decision point.
	edges     [][][]byte
	edgesNext [][][]byte

	// tr carries updates from scatter to gather through the transport
	// seam (internal/core/drive): typed record slices through
	// per-(src, dst) buckets under the one-writer-until-completion
	// discipline, by pointer in memory and — past
	// Config.TransportBudgetBytes — written as raw slabs to spill files.
	// Without a budget it is the same drive.SpillTransport with a budget
	// no Put reaches.
	tr drive.Transport[U]

	// Per-phase partition ownership tables: masters claim their own
	// partitions first, idle machines steal the rest through the §5.4
	// criterion. Two tables because both phases of one iteration run
	// concurrently.
	scatterClaimed []atomic.Bool
	gatherClaimed  []atomic.Bool
	// scatterDone[p] closes when scatter(p) completes; remade each
	// iteration. The close is the happens-before edge that lets
	// gather(q) drain bucket (p, q) — and, once all np channels are
	// closed, run Apply — while other scatters may still be running.
	scatterDone []chan struct{}
	// rngs holds one steal-sweep RNG per machine, created once per run
	// so probe orders vary across phases (as the DES driver's
	// persistent env RNG does) while staying seed-deterministic. Each
	// goroutine touches only its own machine's entry.
	rngs []*rand.Rand
	// others[m] is machine m's steal-sweep probe scratch: the fixed set
	// of partitions m does not master, reshuffled in place each sweep
	// (allocated once per run, not once per sweep).
	others [][]int

	// accums[p] is partition p's gather accumulator slice, allocated
	// once and reset via InitAccum at the top of each gather — the
	// iteration loop's largest recurring allocation before pooling.
	accums [][]A
	// combined[p] is scatter(p)'s combiner buffer, reused across
	// iterations. Only touched by the machine running scatter(p); the
	// iteration barrier orders cross-iteration handoff. Nil unless
	// combining.
	combined []*drive.CombineBuf[V, U, A]

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	ckptBytes    atomic.Int64
	stealsAcc    atomic.Int64
	stealsRej    atomic.Int64

	// applyMu serializes Init/Apply across partitions: those program
	// hooks run on the single simulation thread under the DES driver,
	// so programs are free to keep private state in them (MCST's
	// component forest does). Scatter/Gather/Combine/KeepEdge run
	// concurrently here exactly as they do on the DES driver's worker
	// pool. Pipelining preserves the contract Apply additionally relies
	// on — running strictly after every scatter of its iteration —
	// because gather(p) waits on all np scatterDone channels before its
	// Apply (see gatherPartition).
	applyMu sync.Mutex

	start time.Time
	rmet  *metrics.Run
}

func newRun[V, U, A any](cfg core.Config, prog gas.Program[V, U, A], edges graph.Source, numVertices uint64) (*run[V, U, A], error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	if cfg.CentralDirectory {
		return nil, fmt.Errorf("native: the central-directory baseline is a DES-only experiment")
	}
	kern, err := drive.Plan(cfg.Params, prog, edges, numVertices)
	if err != nil {
		return nil, err
	}
	layout := kern.Layout
	r := &run[V, U, A]{
		cfg:    cfg,
		prog:   prog,
		kern:   kern,
		dec:    kern.NewDecider(),
		layout: layout,
		nm:     cfg.Spec.Machines,
		rmet:   metrics.NewRun(prog.Name(), cfg.Spec.Machines),
	}
	np := layout.NumPartitions
	r.verts = make([][]V, np)
	r.edges = make([][][]byte, np)
	r.edgesNext = make([][][]byte, np)
	if cfg.TransportBudgetBytes > 0 {
		// Out-of-core mode: overflow past the budget is spilled, as the
		// record slabs' own bytes, to real temp files, one directory per
		// run, removed when the transport closes.
		if err := drive.CheckSpillable[U](); err != nil {
			return nil, fmt.Errorf("native: %w", err)
		}
		dir, err := os.MkdirTemp(cfg.SpillDir, "chaos-spill-*")
		if err != nil {
			return nil, fmt.Errorf("native: spill dir: %w", err)
		}
		backend, err := storage.NewFileBackend(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		r.tr = r.kern.NewSpillTransport(cfg.TransportBudgetBytes, backend, func() error { return os.RemoveAll(dir) })
	} else {
		r.tr = r.kern.NewMemTransport()
	}
	r.scatterClaimed = make([]atomic.Bool, np)
	r.gatherClaimed = make([]atomic.Bool, np)
	r.scatterDone = make([]chan struct{}, np)
	r.rngs = make([]*rand.Rand, r.nm)
	r.others = make([][]int, r.nm)
	for m := range r.rngs {
		r.rngs[m] = rand.New(rand.NewSource(cfg.Seed + int64(m)))
		for p := 0; p < np; p++ {
			if layout.Master(p) != m {
				r.others[m] = append(r.others[m], p)
			}
		}
	}
	r.accums = make([][]A, np)
	for p := 0; p < np; p++ {
		r.accums[p] = make([]A, layout.Size(p))
	}
	r.combined = make([]*drive.CombineBuf[V, U, A], np)
	if r.kern.Combiner != nil {
		for p := range r.combined {
			r.combined[p] = r.kern.NewCombineBuf()
		}
	}
	return r, nil
}

// execute drives the run: preprocess, then iterations of scatter and
// gather+apply with a decision point between iterations, mirroring the
// DES driver's loop.
func (r *run[V, U, A]) execute(edges graph.Source) (err error) {
	// The native plane measures real elapsed time by design: its report
	// carries wall-clock, never virtual time (see Report.WallSeconds).
	// These are the only two clock reads in the engine packages, and they
	// feed only the times reported (Report, Progress), never a value or a
	// decision.
	r.start = time.Now()
	// Deferred first, so it runs last: the pool has drained and the
	// transport is closed before the arena's free slabs go back.
	defer r.kern.BorrowSlabs(r.cfg.Slabs)()
	r.pool = drive.NewPool(r.cfg.ComputeWorkers)
	defer r.pool.Close()
	// Closing the transport removes any spill files, on every exit path:
	// completion, interrupt, and rollback alike (update sets are fully
	// consumed by the gather preceding each decision point, so nothing
	// pending is lost).
	defer func() {
		if cerr := r.tr.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	r.preprocess(edges)
	r.rmet.Preprocess = r.elapsed()

	for iter := 0; ; {
		r.runIteration(iter)

		// Decision point (machine 0's role under the DES driver).
		if r.cfg.Progress != nil {
			r.cfg.Progress(drive.Progress{
				Iterations:     iter + 1,
				WallSeconds:    r.elapsed().Seconds(),
				BytesRead:      r.bytesRead.Load(),
				BytesWritten:   r.bytesWritten.Load(),
				StealsAccepted: int(r.stealsAcc.Load()),
				StealsRejected: int(r.stealsRej.Load()),
				SpillBytes:     r.tr.Stats().SpillBytes,
			})
		}
		d := r.dec.Decide(iter)
		if d.RollbackTo >= 0 {
			// Injected transient failure: restore the last committed
			// checkpoint and resume after it.
			r.rmet.Recoveries++
			r.restore()
			iter = d.RollbackTo + 1
			continue
		}
		if d.Done {
			r.rmet.Iterations = iter + 1
			break
		}
		if r.kern.Rewriter != nil {
			r.promoteEdges()
		}
		iter++
	}

	r.rmet.Runtime = r.elapsed()
	r.rmet.BytesRead = r.bytesRead.Load()
	r.rmet.BytesWritten = r.bytesWritten.Load()
	r.rmet.CheckpointBytes = r.ckptBytes.Load()
	r.rmet.StealsAccepted = int(r.stealsAcc.Load())
	r.rmet.StealsRejected = int(r.stealsRej.Load())
	st := r.tr.Stats()
	r.rmet.SpillBytes = st.SpillBytes
	r.rmet.SpillFiles = st.SpillFiles
	return nil
}

// elapsed is host wall-clock since the run started, in the same
// nanosecond unit the DES uses for virtual time.
func (r *run[V, U, A]) elapsed() sim.Time { return sim.Time(time.Since(r.start)) }

// runIteration processes every partition's scatter and gather exactly
// once and returns with the iteration fully settled: one barrier per
// iteration, before the decision point, and none between the phases.
//
// Each of the nm machine goroutines runs scatter over its own
// partitions, closes each partition's scatterDone as it finishes, sweeps
// for scatter steals, then moves straight into gather — its gathers fold
// each source's chunks as that source's channel closes, overlapping with
// other machines' still-running scatters. No goroutine ever blocks
// before finishing its scatter stage, so every scatterDone channel is
// guaranteed to close and the gather waits cannot deadlock. Every
// partition is claimed by the time the goroutines return:
// layout.PartitionsOf covers all partitions across machines 0..nm-1, and
// each master claims its own unconditionally.
func (r *run[V, U, A]) runIteration(iter int) {
	np := r.layout.NumPartitions
	for i := 0; i < np; i++ {
		r.scatterClaimed[i].Store(false)
		r.gatherClaimed[i].Store(false)
		r.scatterDone[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	wg.Add(r.nm)
	for m := 0; m < r.nm; m++ {
		go func(m int) {
			defer wg.Done()
			for _, ph := range [...]phaseKind{scatterPhase, gatherPhase} {
				r.ownPartitions(iter, m, ph)
				r.stealSweep(iter, m, ph)
			}
		}(m)
	}
	wg.Wait()
}

// ownPartitions claims and processes machine m's own partitions, in
// order (masters take whatever of their own work nobody stole, so every
// partition is processed even when the criterion rejects stealing it).
func (r *run[V, U, A]) ownPartitions(iter, m int, ph phaseKind) {
	claimed := r.phaseClaimed(ph)
	for _, p := range r.layout.PartitionsOf(m) {
		if claimed[p].CompareAndSwap(false, true) {
			r.processPartition(iter, m, p, false, ph)
		}
	}
}

// stealSweep probes everyone else's partitions in machine m's
// seeded-random order (§5.3), stealing any still-unclaimed partition the
// §5.4 criterion accepts. The criterion's D is read live — the edge set
// is immutable within an iteration and the transport's PendingBytes is a
// single atomic — so the sweep needs no phase-start snapshot and stays
// correct while producers are still running.
func (r *run[V, U, A]) stealSweep(iter, m int, ph phaseKind) {
	if r.cfg.Alpha == 0 || r.nm <= 1 {
		return
	}
	claimed := r.phaseClaimed(ph)
	sweepT0 := r.elapsed()
	var acc, rej int
	rng := r.rngs[m]
	others := r.others[m]
	rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	for _, p := range others {
		if claimed[p].Load() {
			continue
		}
		if !drive.StealCriterion(r.kern.VertexSetBytes(p), r.remainingBytes(ph, p), 1, r.cfg.Alpha) {
			r.stealsRej.Add(1)
			rej++
			continue
		}
		if claimed[p].CompareAndSwap(false, true) {
			r.stealsAcc.Add(1)
			acc++
			r.processPartition(iter, m, p, true, ph)
		}
	}
	if r.cfg.Trace != nil {
		r.cfg.Trace(drive.Span{
			Iter: iter, Machine: m, Part: -1, Phase: drive.PhaseSteal,
			Start: int64(sweepT0), Dur: int64(r.elapsed() - sweepT0),
			StealsAccepted: acc, StealsRejected: rej,
		})
	}
}

// processPartition dispatches one claimed partition to its phase worker.
// Whoever claims scatter(p) — master or thief — closes its completion
// channel, exactly once, after the last Put of p's update set.
func (r *run[V, U, A]) processPartition(iter, m, p int, stolen bool, ph phaseKind) {
	if ph == scatterPhase {
		r.scatterPartition(iter, m, p, stolen)
		close(r.scatterDone[p])
	} else {
		r.gatherPartition(iter, m, p, stolen)
	}
}

type phaseKind int

const (
	scatterPhase phaseKind = iota
	gatherPhase
)

func (r *run[V, U, A]) phaseClaimed(ph phaseKind) []atomic.Bool {
	if ph == scatterPhase {
		return r.scatterClaimed
	}
	return r.gatherClaimed
}

// remainingBytes is D in the steal criterion: the unprocessed bytes of
// the partition's streamed set this phase. Safe to read while the
// partition's producers run: the edge set is immutable within an
// iteration, and PendingBytes is atomic.
func (r *run[V, U, A]) remainingBytes(ph phaseKind, p int) int64 {
	if ph == scatterPhase {
		return storedBytes(r.edges[p])
	}
	return r.tr.PendingBytes(p)
}

// promoteEdges swaps in the rewritten next-generation edge sets at the
// iteration boundary (§6.1 extended model).
func (r *run[V, U, A]) promoteEdges() {
	for p := range r.edges {
		r.edges[p] = r.edgesNext[p]
		r.edgesNext[p] = nil
	}
}

// restore decodes the last committed checkpoint back into the resident
// vertex store after an injected failure — one of the places vertex
// bytes genuinely move, so it counts toward BytesRead.
func (r *run[V, U, A]) restore() {
	for p, verts := range r.verts {
		chunks := r.dec.Checkpoint(p)
		r.kern.RestoreVertices(p, verts, chunks)
		r.bytesRead.Add(storedBytes(chunks))
	}
}
