package drive

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Transport is the seam between update producers (scatter) and consumers
// (gather): typed update records pass through it as arena slabs, and
// none is encoded on the way. A driver Puts the records partition
// src's scatter emitted for partition dst, chunk by chunk, and later
// drains partition dst's pending chunks in the deterministic
// (source partition, chunk) fold order, source by source as each scatter
// completes (DrainFrom, the streaming consumer API behind the native
// driver's pipelined phase boundary). A record's Off is relative to the
// bucket's dst, which both ends of the bucket name.
// The native driver's SpillTransport moves slabs
// by pointer and writes only the slabs that overflow its budget, as
// their own bytes, to files only its run reads back; without a budget
// (NewMemTransport) it writes nothing. The DES driver's Wire cuts the
// same typed records into chunks its simulated storage engines hold, and
// its devices and network charge each chunk the protocol's byte size,
// records × UpdBytes.
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

// PendingChunk is one drained update chunk awaiting its gather fold:
// either resident records or a spilled chunk's place in its bucket's
// stream. Load materializes the typed records — safe on any goroutine,
// so drivers run it on the compute pool exactly like a chunk decode; for
// a spilled chunk it reads the file straight into an arena slab — and
// Release returns the slab to the kernel's record arena (and, for the
// last spilled chunk of a drained bucket, reclaims the bucket's
// spill-file space). A chunk is plain data: a copy Loads and Releases
// like the original.
type PendingChunk[U any] struct {
	// Bytes is the chunk's encoded-equivalent size, records × UpdBytes
	// even for a spilled chunk, for byte tallies and flight-recorder
	// spans.
	Bytes int64
	t     *SpillTransport[U]
	recs  []UpdRec[U] // resident records; nil when spilled
	ref   chunkRef    // the spilled chunk, when drain is set
	drain *drainState // the drained bucket's spilled chunks; nil when resident
}

// Load materializes the chunk's records. Call exactly once.
func (c *PendingChunk[U]) Load() []UpdRec[U] {
	if c.drain == nil {
		return c.recs
	}
	recs := c.t.arena.grab(c.ref.slab)[:c.ref.recs]
	if err := c.t.backend.ReadInto(c.drain.stream, c.ref.off, recBytes(recs)); err != nil {
		panic(fmt.Sprintf("drive: spill read %s@%d: %v", c.drain.stream, c.ref.off, err))
	}
	return recs
}

// Release recycles the records Load returned. Call exactly once, after
// the fold has consumed them.
func (c *PendingChunk[U]) Release(recs []UpdRec[U]) {
	c.t.arena.release(recs)
	if c.drain == nil {
		c.t.memBytes.Add(-c.Bytes)
	} else if c.drain.remaining.Add(-1) == 0 {
		if err := c.t.backend.Truncate(c.drain.stream); err != nil {
			panic(fmt.Sprintf("drive: spill truncate %s: %v", c.drain.stream, err))
		}
	}
}

// drainState tracks one drained bucket's outstanding spilled chunks so
// the bucket's spill stream is truncated exactly once, after the last
// spilled chunk has been folded and released.
type drainState struct {
	remaining atomic.Int64
	stream    string
}

// NewMemTransport returns the native transport with a budget no Put
// reaches and no backend: every chunk stays resident, moving from
// scatter to gather by pointer, and nothing is ever written.
func (k *Kernel[V, U, A]) NewMemTransport() *SpillTransport[U] {
	return k.NewSpillTransport(math.MaxInt64, nil, nil)
}
