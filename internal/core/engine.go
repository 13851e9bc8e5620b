package core

import (
	"errors"
	"fmt"

	"chaos/internal/cluster"
	"chaos/internal/core/drive"
	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/metrics"
	"chaos/internal/partition"
	"chaos/internal/sim"
	"chaos/internal/storage"
)

// ErrInterrupted reports a run stopped by Config.Interrupt at an
// iteration boundary before converging. No values are returned: the
// vertex state mid-algorithm is not a meaningful partial result.
var ErrInterrupted = errors.New("core: run interrupted")

// engine carries the shared state of one run. Everything here is touched
// only from simulation context, where the DES scheduler serializes all
// access.
type engine[V, U, A any] struct {
	cfg    Config
	prog   gas.Program[V, U, A]
	layout *partition.Layout
	env    *sim.Env
	clu    *cluster.Cluster

	// kern is the driver-neutral data plane (record formats and
	// geometry, pure chunk kernels, scratch pools) and dec the decision
	// point and §6.6 checkpoint, both shared with internal/core/native;
	// see internal/core/drive.
	kern   *drive.Kernel[V, U, A]
	dec    *drive.Decider[V, U, A]
	window int

	stores   []*storage.Store
	storeIn  []*sim.Mailbox
	arbIn    []*sim.Mailbox
	machines []*machine[V, U, A]
	barrier  *sim.Barrier

	// decision is the verdict machine 0 publishes between the gather
	// barrier and the decision barrier of each iteration.
	decision drive.Decision

	input      graph.Source // the unsorted input edge list
	inputSplit [][2]int     // each machine's [lo, hi) of input
	run        *metrics.Run
	dir        *storage.Directory
	dirIn      *sim.Mailbox

	// Compute offload (see parallel.go): the worker pool the storage
	// engines dispatch scatter tasks to and the streamers fold update
	// chunks on (scratch pools live on the kernel).
	pool *drive.Pool

	// verts[p] is partition p's vertex set, resident and typed for the
	// run as on the native plane: its master fills it in pre-processing
	// and rewrites it at apply, and the master and every stealer of p
	// read this one slice. The storage engines model its chunks' I/O by
	// length; the vertex codec runs only at §6.6 checkpoints. accums[p]
	// is the master's gather accumulators of p, allocated with the set
	// and reset at each gather.
	verts  [][]V
	accums [][]A
}

// Run executes prog over the given unsorted edge list on the configured
// cluster and returns the final vertex values plus runtime statistics.
// Timing covers pre-processing through the final apply, as in the paper.
func Run[V, U, A any](cfg Config, prog gas.Program[V, U, A], edges graph.Source, numVertices uint64) ([]V, *metrics.Run, error) {
	eng, err := newEngine(cfg, prog, edges, numVertices)
	if err != nil {
		return nil, nil, err
	}
	if err := eng.execute(); err != nil {
		return nil, nil, err
	}
	if eng.dec.Interrupted() {
		// The partial vertex state is not a result anyone asked for.
		return nil, nil, ErrInterrupted
	}
	values, err := eng.collectValues()
	if err != nil {
		return nil, nil, err
	}
	return values, eng.run, nil
}

// newEngine validates the configuration and builds the simulated cluster,
// stores and machine state for one run.
func newEngine[V, U, A any](cfg Config, prog gas.Program[V, U, A], edges graph.Source, numVertices uint64) (*engine[V, U, A], error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	kern, err := drive.Plan(cfg.Params, prog, edges, numVertices)
	if err != nil {
		return nil, err
	}
	layout := kern.Layout

	env := sim.NewEnv(cfg.Seed)
	clu := cluster.New(env, cfg.Spec)
	eng := &engine[V, U, A]{
		cfg:    cfg,
		prog:   prog,
		layout: layout,
		env:    env,
		clu:    clu,
		kern:   kern,
		dec:    kern.NewDecider(),
		window: cfg.window(clu),
		run:    metrics.NewRun(prog.Name(), cfg.Spec.Machines),
	}

	np := layout.NumPartitions
	eng.verts, eng.accums = make([][]V, np), make([][]A, np)
	nm := cfg.Spec.Machines
	eng.input, eng.inputSplit = edges, drive.SplitInput(edges.Len(), nm)
	for i := 0; i < nm; i++ {
		eng.stores = append(eng.stores, storage.NewStore(i, np, nil))
		eng.storeIn = append(eng.storeIn, sim.NewMailbox(env, fmt.Sprintf("store%d", i)))
		eng.arbIn = append(eng.arbIn, sim.NewMailbox(env, fmt.Sprintf("arb%d", i)))
	}
	if cfg.CentralDirectory {
		eng.dir = storage.NewDirectory(nm, env.Rand())
		eng.dirIn = sim.NewMailbox(env, "directory")
	}
	eng.barrier = sim.NewBarrier(env, nm)
	for i := 0; i < nm; i++ {
		eng.machines = append(eng.machines, newMachine(eng, i))
	}

	// Spawn the per-machine storage engines, steal arbiters and
	// computation engines, plus the optional central directory.
	for i := 0; i < nm; i++ {
		i := i
		env.Spawn(fmt.Sprintf("m%d.store", i), func(p *sim.Proc) { eng.storageProc(p, i) })
		env.Spawn(fmt.Sprintf("m%d.arbiter", i), func(p *sim.Proc) { eng.arbiterProc(p, i) })
	}
	if cfg.CentralDirectory {
		env.Spawn("directory", func(p *sim.Proc) { eng.directoryProc(p) })
	}
	for i := 0; i < nm; i++ {
		m := eng.machines[i]
		env.Spawn(fmt.Sprintf("m%d.compute", i), func(p *sim.Proc) { m.main(p) })
	}
	return eng, nil
}

// execute drives the simulation to completion. The compute pool exists
// only for the duration of the run; close drains every dispatched task,
// so a failed run never leaks worker goroutines. Closing the environment
// unwinds the processes left parked, also when a process's panic unwinds
// through Run. The arena gives its free slabs back to a lent store last,
// once both have.
func (eng *engine[V, U, A]) execute() error {
	defer eng.kern.BorrowSlabs(eng.cfg.Slabs)()
	eng.pool = drive.NewPool(eng.cfg.ComputeWorkers)
	defer eng.pool.Close()
	defer eng.env.Close()
	eng.env.Run()
	if stuck := eng.env.Stuck(); len(stuck) > 0 {
		return fmt.Errorf("core: deadlock, stuck processes: %v", stuck)
	}
	eng.run.Runtime = eng.env.Now()
	eng.run.DeviceUtilization = eng.clu.DeviceUtilization()
	return nil
}

// collectValues returns the final vertex state (host-side), once every
// vertex chunk is found on storage: on its home, or on its replica when
// the run replicates vertex sets (§6.6).
func (eng *engine[V, U, A]) collectValues() ([]V, error) {
	nm := eng.layout.NumMachines
	for part := 0; part < eng.layout.NumPartitions; part++ {
		for idx, n := 0, eng.kern.VertexChunks(part); idx < n; idx++ {
			_, ok := eng.stores[storage.VertexChunkHome(part, idx, nm)].GetVertexChunk(part, idx)
			if !ok && eng.cfg.ReplicateVertices {
				// Primary lost: recover from the replica.
				_, ok = eng.stores[storage.VertexChunkReplica(part, idx, nm)].GetVertexChunk(part, idx)
			}
			if !ok {
				return nil, fmt.Errorf("core: collecting results: no copy of vertex chunk %d of partition %d", idx, part)
			}
		}
	}
	return eng.kern.CollectVertices(eng.verts), nil
}

// decide is machine 0's step between the gather barrier and the decision
// barrier: report progress, then publish the decision point's verdict.
func (eng *engine[V, U, A]) decide(iter int) {
	if eng.cfg.Progress != nil {
		// Same boundary as Decide's Interrupt poll. Purely observational:
		// every counter read here is already settled for this iteration,
		// and the callback cannot touch the RNG, clock or mailboxes, so a
		// run with a subscriber is bit-identical to one without.
		eng.cfg.Progress(drive.Progress{
			Iterations:       iter + 1,
			SimulatedSeconds: eng.env.Now().Seconds(),
			BytesRead:        eng.run.BytesRead,
			BytesWritten:     eng.run.BytesWritten,
			StealsAccepted:   eng.run.StealsAccepted,
			StealsRejected:   eng.run.StealsRejected,
			SpillBytes:       eng.run.SpillBytes,
		})
	}
	eng.decision = eng.dec.Decide(iter)
	if eng.decision.RollbackTo >= 0 {
		eng.run.Recoveries++
	}
}
