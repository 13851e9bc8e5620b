package drive

import "sync/atomic"

// Transport is the seam between update producers (scatter) and consumers
// (gather): the one place where typed update records either stay typed
// slices or become encoded bytes. A driver Puts the records partition
// src's scatter emitted for partition dst, chunk by chunk, and later
// drains partition dst's pending chunks in the deterministic
// (source partition, chunk) fold order, source by source as each scatter
// completes (DrainFrom, the streaming consumer API behind the native
// driver's pipelined phase boundary). A record's Off is relative to the
// bucket's dst, which both ends of the bucket name.
// Encoding is a property of crossing a boundary someone else reads —
// neither native transport encodes: the in-memory one moves slabs by
// pointer, and the spilling one writes the slabs that overflow its
// budget as their own bytes to files only its run reads back. The DES
// driver's Wire always encodes, because the protocol's byte format is
// what its simulated storage engines and network carry and charge.
//
// Concurrency contract (the native store's one-writer discipline):
// bucket (src, dst) is written only by the goroutine running scatter(src)
// — including any budget-pressure spilling, which sweeps row src only —
// until scatter(src)'s completion is published (a channel close or a
// phase barrier). Afterwards the bucket is read only by the goroutine
// running gather(dst), via DrainFrom(dst, src). The
// completion signal is the happens-before edge; no slot is ever touched
// from two goroutines without one. PendingBytes is a single atomic read,
// safe at any time — steal sweeps consult it live while producers are
// still Putting into the column.
//
// Transports never touch a clock, an RNG or a mailbox; spill I/O failure
// mid-phase is unrecoverable and panics with context.
type Transport[U any] interface {
	// Put transfers ownership of recs — one scatter chunk's worth of
	// updates from partition src to partition dst — to the transport.
	// The caller must not touch recs afterwards; the transport releases
	// it to the kernel's record arena once consumed. The returned tallies report
	// any spilling the Put triggered, so the driver can emit
	// PhaseSpill spans without the transport reading a clock.
	Put(src, dst int, recs []UpdRec[U]) (spilledBytes int64, spilledChunks int)
	// PendingBytes is D in the §5.4 steal criterion: the
	// encoded-equivalent bytes pending for partition dst, records ×
	// UpdBytes whether a chunk is resident or spilled. A single atomic
	// read — callable concurrently with Put and DrainFrom.
	PendingBytes(dst int) int64
	// DrainFrom removes and returns the chunks src's scatter emitted
	// for dst, in production order. Draining src 0..np-1 in ascending
	// order yields the deterministic (source partition, chunk) fold
	// order, whether the consumer folds each source's chunks as that
	// source completes or waits for all of them. Each chunk must be
	// Loaded (any goroutine) and then Released. Callable only after
	// scatter(src)'s completion is published.
	DrainFrom(dst, src int) []PendingChunk[U]
	// Stats reports the cumulative spill tallies of the run.
	Stats() TransportStats
	// Close releases the transport's resources (spill files included).
	Close() error
}

// TransportStats are the cumulative spill tallies of one run.
type TransportStats struct {
	// SpillBytes counts bytes written to spill storage: the spilled
	// records at their in-memory size, unsafe.Sizeof(UpdRec[U]{}) each
	// (equal to UpdBytes for a 4-byte payload below 2^32 vertices, 1.5
	// and 1.4 times it for MCST and MIS). The protocol counters never
	// see it: they count records × UpdBytes wherever a chunk sits.
	SpillBytes int64
	// SpillFiles counts spill files created (one per (src, dst) stream
	// that ever overflowed).
	SpillFiles int
}

// PendingChunk is one drained update chunk awaiting its gather fold.
// Load materializes the typed records — safe on any goroutine, so
// drivers run it on the compute pool exactly like a chunk decode; for a
// spilled chunk it reads the file straight into an arena slab — and
// Release returns the slab to the kernel's record arena
// (and, for the last spilled chunk of a drained bucket, reclaims the
// bucket's spill-file space).
type PendingChunk[U any] struct {
	// Bytes is the chunk's encoded-equivalent size, records × UpdBytes
	// even for a spilled chunk, for byte tallies and flight-recorder
	// spans.
	Bytes   int64
	load    func() []UpdRec[U]
	release func([]UpdRec[U])
}

// Load materializes the chunk's records. Call exactly once.
func (c *PendingChunk[U]) Load() []UpdRec[U] { return c.load() }

// Release recycles the records Load returned. Call exactly once, after
// the fold has consumed them.
func (c *PendingChunk[U]) Release(recs []UpdRec[U]) { c.release(recs) }

// MemTransport is the zero-copy in-memory transport: typed record slabs
// move from scatter to gather through per-(src, dst) bucket slots with no
// encode/decode round-trip. Rows are allocated per source partition so
// concurrent producers write disjoint backing arrays, and the slabs
// themselves return to the run's record arena (Kernel.ReleaseRecs) once
// folded, where the next iteration's scatter finds them.
type MemTransport[U any] struct {
	updBytes int
	release  func([]UpdRec[U])
	// buckets[src][dst] holds the chunks src's scatter emitted for dst,
	// in production order. One writer per row during scatter, one reader
	// per column once the source completes (see the Transport contract).
	buckets [][][][]UpdRec[U]
	// pending[dst] is the column's encoded-equivalent byte total,
	// maintained atomically so steal sweeps can read it while producers
	// are still appending.
	pending []atomic.Int64
}

// NewMemTransport returns the in-memory transport over the kernel's
// record geometry and arena.
func (k *Kernel[V, U, A]) NewMemTransport() *MemTransport[U] {
	np := k.Layout.NumPartitions
	t := &MemTransport[U]{
		updBytes: k.UpdBytes,
		release:  k.ReleaseRecs,
		buckets:  make([][][][]UpdRec[U], np),
		pending:  make([]atomic.Int64, np),
	}
	for src := 0; src < np; src++ {
		t.buckets[src] = make([][][]UpdRec[U], np)
	}
	return t
}

// Put appends recs as one chunk of bucket (src, dst). Never spills.
func (t *MemTransport[U]) Put(src, dst int, recs []UpdRec[U]) (int64, int) {
	t.buckets[src][dst] = append(t.buckets[src][dst], recs)
	t.pending[dst].Add(int64(len(recs)) * int64(t.updBytes))
	return 0, 0
}

// PendingBytes reports the encoded-equivalent bytes pending for dst.
func (t *MemTransport[U]) PendingBytes(dst int) int64 {
	return t.pending[dst].Load()
}

// DrainFrom removes and returns bucket (src, dst)'s chunks in
// production order.
func (t *MemTransport[U]) DrainFrom(dst, src int) []PendingChunk[U] {
	chunks := t.buckets[src][dst]
	if len(chunks) == 0 {
		return nil
	}
	t.buckets[src][dst] = nil
	out := make([]PendingChunk[U], 0, len(chunks))
	var drained int64
	for _, recs := range chunks {
		recs := recs
		sz := int64(len(recs)) * int64(t.updBytes)
		drained += sz
		out = append(out, PendingChunk[U]{
			Bytes:   sz,
			load:    func() []UpdRec[U] { return recs },
			release: t.release,
		})
	}
	t.pending[dst].Add(-drained)
	return out
}

// Stats reports zero: the in-memory transport never spills.
func (t *MemTransport[U]) Stats() TransportStats { return TransportStats{} }

// Close is a no-op: all memory is the arena's or garbage-collected.
func (t *MemTransport[U]) Close() error { return nil }

// drainState tracks one drained bucket's outstanding spilled chunks so
// the bucket's spill stream is truncated exactly once, after the last
// spilled chunk has been folded and released.
type drainState struct {
	remaining atomic.Int64
	truncate  func(stream string)
	stream    string
}

func (d *drainState) done() {
	if d.remaining.Add(-1) == 0 {
		d.truncate(d.stream)
	}
}
