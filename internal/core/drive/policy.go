package drive

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"chaos/internal/gas"
	"chaos/internal/graph"
	"chaos/internal/partition"
)

// The protocol's policy, written once for both drivers: run planning,
// vertex-chunk geometry, the resident vertex sets' checkpoint codec,
// pre-processing, the combiner buffer and the decision point with its
// §6.6 checkpoint (the chunk kernels, gather fold and apply step are in
// drive.go). None of it reads a clock.

// Params is the clock-free slice of a run's configuration: what the
// protocol's policy depends on under any driver. core.Config embeds it
// (this package cannot import core), and both drivers hand it to Plan.
type Params struct {
	Machines int // core.Config.Normalize copies it from the spec
	// MemBudget is the per-machine budget for one partition's vertex
	// set (§3); zero or less means one partition per machine.
	MemBudget        int64
	ChunkBytes       int // edge/update chunks; the paper's are 4 MB (§7)
	VertexChunkBytes int
	MaxIterations    int
	CheckpointEvery  int  // see Decider
	FailAtIteration  int  // see Decider
	CombineUpdates   bool // §11.1, with the program's gas.Combiner
	RewriteEdges     bool // §6.1, with the program's gas.EdgeRewriter
	// Interrupt, when non-nil, is polled at each iteration boundary
	// (machine 0's decision point). When it returns true the run stops
	// cleanly at that boundary — in-flight chunk work drains, the
	// simulation unwinds — and the driver returns core.ErrInterrupted.
	// The job service wires a context's Done check here so DELETE on a
	// running job is observed between iterations.
	Interrupt func() bool
}

// Env is what a run is lent beside its configuration: observers, a
// directory and a cache that change no value, report or virtual clock.
// core.Config embeds it, and the root package carries it through a
// context (chaos.WithTrace and its siblings) whole.
type Env struct {
	// Trace, when non-nil, receives one Span per unit of per-machine
	// work (preprocess, scatter/gather/apply per partition, steal
	// sweeps) the moment the driver settles it. Observational only: it
	// is handed already-settled tallies and cannot reach the run's RNG,
	// clock or mailboxes, so attaching a recorder leaves results,
	// reports and the virtual clock bit-identical
	// (TestTraceDoesNotPerturbRun). See TraceFn for which goroutine
	// calls it.
	Trace TraceFn
	// Progress, when non-nil, is called at the iteration boundary
	// Params.Interrupt is polled at, with a snapshot of the run's
	// counters so far. It runs on the decision goroutine: a slow
	// callback stalls host wall-clock, never simulated time.
	Progress func(Progress)
	// SpillDir is the parent directory for the native driver's spill
	// files ("" = the OS temp dir). It is absent from option
	// fingerprints.
	SpillDir string
	// Bins, when set, lends the native driver the pre-processing output
	// (§3) of earlier runs over the same edges, and keeps the output of
	// this one for later runs. A borrowed bin set is the one this run
	// would build. The DES driver ignores it: it charges pre-processing
	// in virtual time.
	Bins *BinCache
}

// Plan infers the vertex count when the caller passes zero and refuses
// one the edges name a vertex beyond (one pass over src), sizes the
// partition layout from the memory budget (§3), derives the record
// geometry and resolves the program extensions the run asks for.
func Plan[V, U, A any](p Params, prog gas.Program[V, U, A], src graph.Source, numVertices uint64) (*Kernel[V, U, A], error) {
	numVertices, err := graph.VertexCount(src, numVertices)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	vbytes := int64(prog.VertexCodec().Bytes)
	budget := p.MemBudget
	if budget <= 0 {
		budget = int64(numVertices+1) * vbytes // unconstrained
	}
	layout, err := partition.NewLayout(numVertices, p.Machines, vbytes, budget)
	if err != nil {
		return nil, err
	}
	if layout.PerPartition > 1<<32 {
		// An update record addresses its destination by a 32-bit offset
		// into the destination partition (UpdRec.Off).
		return nil, fmt.Errorf("core: %d partitions of %d vertices each are wider than the 2^32 an update record can address; use more machines or a smaller memory budget",
			layout.NumPartitions, layout.PerPartition)
	}
	k := NewKernel(prog, layout)
	k.Params = p
	if p.CombineUpdates {
		c, ok := any(prog).(gas.Combiner[U])
		if !ok {
			return nil, fmt.Errorf("core: %s does not implement gas.Combiner; cannot combine updates", prog.Name())
		}
		k.Combiner = c
	}
	if p.RewriteEdges {
		r, ok := any(prog).(gas.EdgeRewriter[V])
		if !ok {
			return nil, fmt.Errorf("core: %s does not implement gas.EdgeRewriter; cannot rewrite edges", prog.Name())
		}
		k.Rewriter = r
	}
	return k, nil
}

// VerticesPerChunk is the vertex-set chunk geometry (§6.4): whole records
// per VertexChunkBytes, at least one.
func (k *Kernel[V, U, A]) VerticesPerChunk() int {
	return max(k.VertexChunkBytes/k.VBytes, 1)
}

// VertexChunks is the number of chunks in partition part's vertex set.
func (k *Kernel[V, U, A]) VertexChunks(part int) int {
	per := uint64(k.VerticesPerChunk())
	return int((k.Layout.Size(part) + per - 1) / per)
}

// VertexChunkLen is the modeled length of chunk idx of partition part's
// vertex set: its records × VBytes, the last chunk short.
func (k *Kernel[V, U, A]) VertexChunkLen(part, idx int) int {
	per := k.VerticesPerChunk()
	return min(per, int(k.Layout.Size(part))-idx*per) * k.VBytes
}

// VertexSetBytes is V in the steal criterion: the partition's encoded
// vertex set, the transfer a steal costs.
func (k *Kernel[V, U, A]) VertexSetBytes(part int) int64 {
	return int64(k.Layout.Size(part)) * int64(k.VBytes)
}

// EncodeVertices encodes a partition's vertex set into its chunks, each
// fresh bytes: the §6.6 shadow copy, the one place vertex state is
// encoded.
func (k *Kernel[V, U, A]) EncodeVertices(verts []V) [][]byte {
	per := k.VerticesPerChunk()
	chunks := make([][]byte, 0, (len(verts)+per-1)/per)
	for lo := 0; lo < len(verts); lo += per {
		chunks = append(chunks, k.VCodec.EncodeSlice(verts[lo:min(lo+per, len(verts))]))
	}
	return chunks
}

// RestoreVertices decodes partition part's committed checkpoint chunks
// into its resident vertex set, which they must fill exactly.
func (k *Kernel[V, U, A]) RestoreVertices(part int, verts []V, chunks [][]byte) {
	at := 0
	for _, c := range chunks {
		at += k.VCodec.DecodeSliceInto(verts[at:], c)
	}
	if at != len(verts) {
		panic(fmt.Sprintf("drive: checkpoint for partition %d held %d records, want %d", part, at, len(verts)))
	}
}

// CollectVertices copies the resident vertex sets, verts[p] partition
// p's, into one value vector indexed by vertex.
func (k *Kernel[V, U, A]) CollectVertices(verts [][]V) []V {
	values := make([]V, k.Layout.NumVertices)
	for p, vs := range verts {
		lo, hi := k.Layout.Range(p)
		if copied := copy(values[lo:hi], vs); uint64(copied) != uint64(hi-lo) {
			panic(fmt.Sprintf("drive: partition %d held %d records, want %d", p, copied, uint64(hi-lo)))
		}
	}
	return values
}

// BinEdges is the pre-processing pass over one batch of input edges
// (§3): each edge is encoded onto bins, a Wire over source partitions
// whose limit (a whole number of edge records) and flush are the
// driver's, and, when deg is non-nil,
// counted into its source's out-degree (deg[p] appears with partition
// p's first edge).
func (k *Kernel[V, U, A]) BinEdges(batch []graph.Edge, bins *Wire[byte], deg [][]uint32) {
	// Locals, so the calls into the Wire do not make the loop reload the
	// format and the layout for every edge; each record is encoded in
	// place, in the bin's own buffer. Only a bin that needs new backing
	// or fills a chunk, and a partition's first degree, call out.
	loc, format := newLocator(k.Layout), k.EdgeFmt
	size := format.EdgeSize()
	for _, e := range batch {
		p, lo := loc.of(e.Src)
		rec := bins.tryReserve(p, size)
		if rec == nil {
			rec = bins.Reserve(p, size)
		}
		format.Encode(rec, e)
		bins.Commit(p)
		if deg != nil {
			if deg[p] == nil {
				deg[p] = make([]uint32, k.Layout.Size(p))
			}
			deg[p][uint64(e.Src)-lo]++
		}
	}
}

// FoldDegrees adds one machine's counts for partition part (BinEdges'
// deg[part], possibly nil) into the partition's totals.
func (k *Kernel[V, U, A]) FoldDegrees(acc [][]uint32, part int, counts []uint32) {
	if acc[part] == nil {
		acc[part] = make([]uint32, k.Layout.Size(part))
	}
	for i, d := range counts {
		acc[part][i] += d
	}
}

// InitVertices builds partition part's initial vertex set; deg is nil
// when the program does not ask for degrees. Init may keep private
// program state, so callers run it on one goroutine at a time.
func (k *Kernel[V, U, A]) InitVertices(part int, deg []uint32) []V {
	prog := k.Prog
	lo, _ := k.Layout.Range(part)
	verts := make([]V, k.Layout.Size(part))
	for i := range verts {
		var d uint32
		if deg != nil {
			d = deg[i]
		}
		prog.Init(lo+graph.VertexID(i), &verts[i], d)
	}
	return verts
}

// CombineBuf is one scatter stream's Pregel-style combiner buffer
// (§11.1), the one place updates are combined: updates to the same
// destination vertex merge in place, per destination partition, and
// leave as one chunk sorted by destination — when a partition holds a
// chunk's worth of distinct destinations, and at phase end. The sort
// makes the record order, and with it the gather order and any float
// fold, independent of map iteration. Keys are the records' Off, so a
// shipped record is the key and its value. ship owns recs, an arena
// slab. A buffer belongs to one goroutine at a time.
type CombineBuf[V, U, A any] struct {
	k    *Kernel[V, U, A]
	per  int // distinct destinations that make a chunk
	maps []map[uint32]U
	// chunk is Add's scratch: one chunk's records for one destination,
	// merged among themselves, reused for every destination and chunk.
	chunk map[uint32]U
}

// NewCombineBuf returns an empty buffer over k's destination partitions.
func (k *Kernel[V, U, A]) NewCombineBuf() *CombineBuf[V, U, A] {
	return &CombineBuf[V, U, A]{
		k:     k,
		per:   max(k.ChunkBytes/k.UpdBytes, 1),
		maps:  make([]map[uint32]U, k.Layout.NumPartitions),
		chunk: make(map[uint32]U),
	}
}

// Add merges one scatter chunk's typed records (ScatterOut.Typed, left
// in place), shipping every destination partition that fills, in
// ascending partition order, and returns the records it merged. A
// destination's records first merge among themselves in record order,
// and that partial merge then into the buffer, so a float combine rounds
// a chunk's partial sum before the buffer's.
func (b *CombineBuf[V, U, A]) Add(typed [][]UpdRec[U], ship func(tp int, recs []UpdRec[U])) (merged int) {
	comb := b.k.Combiner
	for tp, recs := range typed {
		if len(recs) == 0 {
			continue
		}
		for _, r := range recs {
			if old, ok := b.chunk[r.Off]; ok {
				r.Val = comb.Combine(old, r.Val)
			}
			b.chunk[r.Off] = r.Val
		}
		merged += len(recs)
		mp := b.maps[tp]
		if mp == nil {
			mp = make(map[uint32]U, b.per)
			b.maps[tp] = mp
		}
		for off, val := range b.chunk {
			if old, ok := mp[off]; ok {
				val = comb.Combine(old, val)
			}
			mp[off] = val
		}
		clear(b.chunk)
		if len(mp) >= b.per {
			b.drain(tp, ship)
		}
	}
	return merged
}

// Flush ships what is left, in ascending partition order.
func (b *CombineBuf[V, U, A]) Flush(ship func(tp int, recs []UpdRec[U])) {
	for tp := range b.maps {
		b.drain(tp, ship)
	}
}

func (b *CombineBuf[V, U, A]) drain(tp int, ship func(tp int, recs []UpdRec[U])) {
	mp := b.maps[tp]
	if len(mp) == 0 {
		return
	}
	recs := b.k.GrabRecs(len(mp))
	for off, val := range mp {
		recs = append(recs, UpdRec[U]{Off: off, Val: val})
	}
	slices.SortFunc(recs, func(x, y UpdRec[U]) int { return cmp.Compare(x.Off, y.Off) })
	clear(mp)
	ship(tp, recs)
}

// Decision is the verdict of one iteration's decision point.
type Decision struct {
	Done bool
	// RollbackTo is the committed checkpoint's iteration to restore and
	// resume after, or -1.
	RollbackTo int
}

// Decider is the decision point between iterations (machine 0's role in
// the paper): convergence, the iteration cap, cooperative interruption,
// the two-phase vertex checkpoint of §6.6 and the injected transient
// failure that exercises it. It holds the checkpoint's bytes, the only
// encoded vertex state of a run; each driver's restore decodes them into
// its resident sets with RestoreVertices. Stage may run
// concurrently for distinct partitions and Changed from anywhere; Decide
// runs alone, once the iteration has settled.
type Decider[V, U, A any] struct {
	k *Kernel[V, U, A]
	// Changed counts the vertices this iteration's Apply changed; Decide
	// consumes and resets it.
	Changed atomic.Uint64

	// Encoded vertex chunks per partition: pending while the iteration
	// applies, stable once a decision point has committed them.
	pending, stable [][][]byte
	ckptIter        int
	failed          bool
	interrupted     bool
}

// NewDecider returns the decision point of one run over k.
func (k *Kernel[V, U, A]) NewDecider() *Decider[V, U, A] {
	np := k.Layout.NumPartitions
	return &Decider[V, U, A]{k: k, pending: make([][][]byte, np), stable: make([][][]byte, np), ckptIter: -1}
}

// CheckpointDue reports whether iteration iter ends with a checkpoint.
func (d *Decider[V, U, A]) CheckpointDue(iter int) bool {
	every := d.k.CheckpointEvery
	return every > 0 && (iter+1)%every == 0
}

// Stage is phase 1 of the checkpoint: partition part's shadow copy,
// written during the apply of an iteration CheckpointDue names.
func (d *Decider[V, U, A]) Stage(part int, chunks [][]byte) { d.pending[part] = chunks }

// Checkpoint returns partition part's last committed chunks, or nil.
func (d *Decider[V, U, A]) Checkpoint(part int) [][]byte { return d.stable[part] }

// Interrupted reports whether Params.Interrupt stopped the run.
func (d *Decider[V, U, A]) Interrupted() bool { return d.interrupted }

// Decide settles iteration iter.
func (d *Decider[V, U, A]) Decide(iter int) Decision {
	p := &d.k.Params
	out := Decision{RollbackTo: -1}
	// The iteration's update sets are consumed: the record arena drops
	// the free slabs this iteration did not need, and the slab sizes it
	// produced become what the next one expects.
	d.k.arena.trim()
	d.k.hints.age()
	out.Done = d.k.Prog.Converged(iter, d.Changed.Swap(0)) || iter+1 >= p.MaxIterations
	if !out.Done && p.Interrupt != nil && p.Interrupt() {
		// Cooperative cancellation: the driver finishes this iteration's
		// barriers normally, so everything unwinds cleanly, and stops.
		out.Done = true
		d.interrupted = true
	}
	if d.CheckpointDue(iter) {
		// Phase 2: every shadow copy was written before the iteration
		// settled, so commit by promoting pending to stable and only then
		// dropping the previous checkpoint (§6.6: new values completely
		// stored before the old values are removed).
		d.stable = d.pending
		d.pending = make([][][]byte, len(d.stable))
		d.ckptIter = iter
	}
	if !out.Done && p.FailAtIteration > 0 && !d.failed && iter+1 >= p.FailAtIteration && d.ckptIter >= 0 {
		d.failed = true
		out.RollbackTo = d.ckptIter
	}
	return out
}
