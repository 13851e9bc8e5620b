package drive

import "reflect"

// Wire cuts a stream of fixed-size records into chunks per destination
// partition: exactly-limit-sized chunks handed to the driver's flush
// callback at the instant they fill, and a phase-end flush of whatever is
// left. Its chunk boundaries and flush call sequence are the simulation's
// RNG draw order, so they depend only on record counts: the DES driver
// cuts its update chunks with a Wire[UpdRec[U]] — typed records, charged
// at records × UpdBytes wherever they go — and both drivers cut their
// edge sets (the pre-processing bins, the rewritten sets of the §6.1
// extended model) with a Wire[byte].
//
// A Wire belongs to one goroutine: the simulation context under the DES,
// the scattering machine under the native driver.
type Wire[T any] struct {
	limit  int // chunk size in records
	minCap int // minChunkCap in records
	bufs   [][]T
	filled []bool // dst has filled a chunk since the last FlushPartials
	flush  func(dst int, chunk []T)
	// grab and release are the backing source DrawFrom attaches; nil
	// allocates and drops.
	grab    func(n int) []T
	release func([]T)
}

// minChunkCap is the smallest backing a chunk starts on, in bytes of
// memory whatever the record type.
const minChunkCap = 4 << 10

// NewWire returns a Wire over np destination partitions. limit is the
// chunk size in records (in bytes for a Wire[byte], a whole number of
// records); flush receives each finished chunk (ownership transfers: a
// flushed slice is in flight through the driver's storage protocol for as
// long as the driver likes, so the Wire never touches it again and
// starts the next chunk on other backing).
func NewWire[T any](np, limit int, flush func(dst int, chunk []T)) *Wire[T] {
	minCap := max(minChunkCap/int(reflect.TypeFor[T]().Size()), 1)
	return &Wire[T]{limit: limit, minCap: minCap, bufs: make([][]T, np), filled: make([]bool, np), flush: flush}
}

// DrawFrom makes w take every chunk's backing from grab, which returns an
// empty slice holding at least n records, and hand the buffers it
// outgrows to release, instead of allocating and dropping them. A flushed
// chunk still belongs to its receiver, which returns it to the same
// source once nobody can read it, or keeps it, as the DES store keeps
// its edge chunks (DESIGN.md, "Who owns a chunk's bytes").
// It returns w.
func (w *Wire[T]) DrawFrom(grab func(n int) []T, release func([]T)) *Wire[T] {
	w.grab, w.release = grab, release
	return w
}

// Put appends records to dst's buffer, flushing full chunks of exactly
// limit records as they fill. Backing follows the data: most (machine,
// destination) pairs never fill a chunk — at the default 4 MiB chunk size
// a small graph fills none — so a destination's first chunk of a phase
// grows by doubling from minChunkCap, never past limit, and holds at most
// twice what it carries. Once a destination has filled a chunk it is a
// stream, and its next chunks are allocated once, at limit: one
// allocation and one copy per chunk, however many Puts it takes to fill.
// Under DrawFrom the allocations are the source's grabs.
func (w *Wire[T]) Put(dst int, recs []T) {
	for len(recs) > 0 {
		n := min(w.limit-len(w.bufs[dst]), len(recs))
		copy(w.Reserve(dst, n), recs[:n])
		w.Commit(dst)
		recs = recs[n:]
	}
}

// Reserve extends dst's buffer by n records and returns them for the
// caller to write in place (BinEdges encodes each edge where it will be
// stored); Commit(dst) must follow before the Wire's next call. n may not
// cross the chunk boundary, which holds for any record whose size divides
// limit.
func (w *Wire[T]) Reserve(dst, n int) []T {
	if recs := w.tryReserve(dst, n); recs != nil {
		return recs
	}
	w.bufs[dst] = w.grow(w.bufs[dst], dst, n)
	return w.tryReserve(dst, n)
}

// tryReserve is Reserve when dst's backing has room for n more records,
// and nil when it has not. A per-record loop calls it first: the compiler
// inlines it, and Reserve — whose other case allocates — it does not.
// w.bufs[dst] is resliced in place, which stores its length alone.
func (w *Wire[T]) tryReserve(dst, n int) []T {
	l := len(w.bufs[dst]) + n
	if l > cap(w.bufs[dst]) {
		return nil
	}
	w.bufs[dst] = w.bufs[dst][:l]
	return w.bufs[dst][l-n : l]
}

// grow moves dst's buffer onto backing with room for n more records.
func (w *Wire[T]) grow(buf []T, dst, n int) []T {
	c := w.limit
	if !w.filled[dst] {
		c = min(c, max(len(buf)+n, 2*cap(buf), w.minCap))
	}
	if w.grab == nil {
		return append(make([]T, 0, c), buf...)
	}
	grown := append(w.grab(c), buf...)
	if buf != nil {
		w.release(buf)
	}
	return grown
}

// Commit ends a Reserve: a chunk the reserved records completed goes to
// flush now, at the instant its last record is written — flush order
// across destinations is the DES driver's RNG draw order, so it cannot
// wait for the destination's next Reserve. Its check inlines; the
// flush is ship's.
func (w *Wire[T]) Commit(dst int) {
	if len(w.bufs[dst]) == w.limit {
		w.ship(dst)
	}
}

// ship hands dst's full buffer to flush.
func (w *Wire[T]) ship(dst int) {
	buf := w.bufs[dst]
	w.bufs[dst] = nil
	w.filled[dst] = true
	w.flush(dst, buf)
}

// PutChunk ships one pre-assembled chunk immediately, bypassing the
// buffering (the combiner's sorted flushes are chunks of their own
// regardless of size).
func (w *Wire[T]) PutChunk(dst int, chunk []T) {
	w.flush(dst, chunk)
}

// FlushPartials writes out the partially filled buffers in ascending
// destination order (the deterministic phase-end flush). The next phase
// sizes its buffers from its own traffic, not this one's.
func (w *Wire[T]) FlushPartials() {
	for dst, buf := range w.bufs {
		if len(buf) > 0 {
			w.flush(dst, buf)
			w.bufs[dst] = nil
		}
	}
	clear(w.filled)
}
