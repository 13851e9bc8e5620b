package drive

// Wire is the DES driver's side of the transport seam: the byte-format
// update path. Under the simulation every update chunk crosses a modeled
// storage boundary, so records are always encoded — Wire owns the
// per-destination record-aligned buffering that turns a scatter kernel's
// encoded output into exactly-limit-sized chunks, handing each finished
// chunk to the driver's flush callback at the instant it fills. The
// chunk boundaries and flush call sequence are bit-identical to the
// buffering it replaced, which is what keeps the simulation's RNG draw
// order, and with it every determinism test, unchanged. Both drivers
// also cut their edge sets (the pre-processing bins, the rewritten sets
// of the §6.1 extended model) into chunks with a Wire.
//
// A Wire belongs to one goroutine: the simulation context under the DES,
// the scattering machine under the native driver.
type Wire struct {
	limit  int
	bufs   [][]byte
	filled []bool // dst has filled a chunk since the last FlushPartials
	flush  func(dst int, chunk []byte)
}

// minChunkCap is the smallest backing a chunk starts on.
const minChunkCap = 4 << 10

// NewWire returns a Wire over np destination partitions. limit is the
// record-aligned chunk size in bytes; flush receives each finished chunk
// (ownership transfers: a flushed slice is in flight through the
// driver's storage protocol for as long as the driver likes, so the
// Wire never touches it again and starts the next chunk on fresh
// backing).
func NewWire(np, limit int, flush func(dst int, chunk []byte)) *Wire {
	return &Wire{limit: limit, bufs: make([][]byte, np), filled: make([]bool, np), flush: flush}
}

// Put appends encoded records to dst's buffer, flushing full chunks of
// exactly limit bytes as they fill. Backing follows the data: most
// (machine, destination) pairs never fill a chunk — at the default 4 MiB
// chunk size a small graph fills none — so a destination's first chunk
// of a phase grows by doubling from minChunkCap, never past limit, and
// holds at most twice what it carries. Once a destination has filled a
// chunk it is a stream, and its next chunks are allocated once, at
// limit: one allocation and one copy per chunk, however many Puts it
// takes to fill.
func (w *Wire) Put(dst int, b []byte) {
	for len(b) > 0 {
		n := min(w.limit-len(w.bufs[dst]), len(b))
		copy(w.Reserve(dst, n), b[:n])
		w.Commit(dst)
		b = b[n:]
	}
}

// Reserve extends dst's buffer by n bytes and returns them for the caller
// to write in place (BinEdges encodes each edge where it will be stored);
// Commit(dst) must follow before the Wire's next call. n may not cross
// the chunk boundary, which holds for any record whose size divides limit.
func (w *Wire) Reserve(dst, n int) []byte {
	buf := w.bufs[dst]
	if cap(buf)-len(buf) < n {
		c := w.limit
		if !w.filled[dst] {
			c = min(c, max(len(buf)+n, 2*cap(buf), minChunkCap))
		}
		buf = append(make([]byte, 0, c), buf...)
	}
	buf = buf[:len(buf)+n]
	w.bufs[dst] = buf
	return buf[len(buf)-n:]
}

// Commit ends a Reserve: a chunk the reserved bytes completed goes to
// flush now, at the instant its last record is written — flush order
// across destinations is the DES driver's RNG draw order, so it cannot
// wait for the destination's next Reserve.
func (w *Wire) Commit(dst int) {
	if buf := w.bufs[dst]; len(buf) == w.limit {
		w.bufs[dst] = nil
		w.filled[dst] = true
		w.flush(dst, buf)
	}
}

// PutChunk ships one pre-assembled chunk immediately, bypassing the
// record-aligned buffering (the combiner's sorted flushes are chunks of
// their own regardless of size).
func (w *Wire) PutChunk(dst int, chunk []byte) {
	w.flush(dst, chunk)
}

// FlushPartials writes out the partially filled buffers in ascending
// destination order (the deterministic phase-end flush). The next phase
// sizes its buffers from its own traffic, not this one's.
func (w *Wire) FlushPartials() {
	for dst, buf := range w.bufs {
		if len(buf) > 0 {
			w.flush(dst, buf)
			w.bufs[dst] = nil
		}
	}
	clear(w.filled)
}
