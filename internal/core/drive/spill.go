package drive

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync/atomic"
	"unsafe"

	"chaos/internal/graph"
	"chaos/internal/storage"
)

// SpillTransport is the native driver's update transport. It keeps
// buckets typed and in memory, slabs moving from scatter to gather by
// pointer, until the configured budget is exceeded; then it writes whole
// overflowing buckets — each chunk's slab as the bytes it already is, no
// codec — to one storage stream per (src, dst) pair, named at the
// bucket's first spill. An update set that fits is just the run where
// nothing overflows: NewMemTransport's budget is one no Put reaches, so
// it never writes or names a stream. Drained buckets stream their
// spilled chunks back in production order, read straight into arena
// slabs — spilled chunks always precede a bucket's in-memory tail, so
// the per-(src, dst) record sequence, and with it every float fold, is
// identical to the all-in-memory run.
//
// A spill file is private to the run and the process that wrote it and
// never outlives the run, so the raw form need not care about byte order
// or padding; it is sound only for a pointer-free U (CheckSpillable).
//
// Budget enforcement keeps the one-writer discipline: a Put that tips the
// total over budget spills buckets of its own source row only, so no lock
// protects bucket state; only the global byte counters and the backend
// (which serializes internally) are shared.
type SpillTransport[U any] struct {
	updBytes int
	budget   int64
	backend  storage.Backend // nil when no Put can reach the budget
	cleanup  func() error
	arena    *recArena[U]

	memBytes   atomic.Int64
	spillBytes atomic.Int64
	spillFiles atomic.Int64

	rows []spillRow[U]
	// pending[dst] is the column's encoded-equivalent byte total
	// (spilled and resident both — counted in records × UpdBytes, so
	// spilling a chunk never changes its pending contribution),
	// maintained atomically so steal sweeps can read it while
	// producers are still Putting.
	pending []atomic.Int64
}

// spillRow is one source partition's buckets. Allocated per row so
// concurrent producers write disjoint backing arrays.
type spillRow[U any] struct {
	buckets []spillBucket[U]
}

// spillBucket is one (src, dst) slot: the spilled chunk refs (oldest
// first, always preceding mem in fold order) plus the in-memory tail.
// Both slices keep their backing arrays across drains, so a warm run
// appends to a bucket without growing it.
type spillBucket[U any] struct {
	stream string     // named at the first spill; "" while none happened
	refs   []chunkRef // on-disk chunks, production order
	mem    [][]UpdRec[U]
}

// chunkRef locates one spilled chunk inside its bucket's stream. recs is
// its record count — every counter is records × UpdBytes, never the
// on-disk length, which is the resident record size. slab is the
// capacity of the slab the chunk left memory in: it comes back in one of
// the same size class, so a budgeted run cycles the slabs it has instead
// of asking for a neighbouring class on the way back.
type chunkRef struct {
	off  int64
	recs int
	slab int
}

// recBytes is the memory of recs' records as bytes: what a spill writes
// and what its replay reads into.
func recBytes[U any](recs []UpdRec[U]) []byte {
	if len(recs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&recs[0])), len(recs)*int(unsafe.Sizeof(recs[0])))
}

// readsInPlace reports whether an edge chunk's compact records can be
// read where they lie (edgeRecords): on a little-endian host the §8
// bytes are the records' memory, and both record types are 4-aligned, so
// the chunk must start on a multiple of 4. A chunk that does not — a
// big-endian host, bytes resliced off a record boundary — is decoded.
func readsInPlace(data []byte) bool {
	return littleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(data)))%4 == 0
}

var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// edgeRecords is data, whole compact records that readsInPlace admits,
// as the records themselves.
func edgeRecords[E graph.CompactRecord](data []byte) []E {
	var e E
	return unsafe.Slice((*E)(unsafe.Pointer(unsafe.SliceData(data))), len(data)/int(unsafe.Sizeof(e)))
}

// CheckSpillable reports whether update records of type U may spill as
// their own bytes: only a type that can hold no pointer may, since bytes
// read back from a file are never a live pointer. The native driver asks
// once per budgeted run, before any spill directory exists.
func CheckSpillable[U any]() error {
	if !pointerFree(reflect.TypeFor[U]()) {
		return fmt.Errorf("update type %v can hold a pointer, so its records cannot spill as raw bytes; run it without a memory budget", reflect.TypeFor[U]())
	}
	return nil
}

// pointerFree reports whether a value of type t can hold no pointer.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// NewSpillTransport returns the spilling transport over the kernel's
// record geometry and arena. budget is the in-memory byte ceiling
// (encoded-equivalent); backend receives the overflow, one stream per
// (src, dst) bucket; cleanup (optional) runs after the backend closes,
// typically removing the spill directory. U must pass CheckSpillable.
func (k *Kernel[V, U, A]) NewSpillTransport(budget int64, backend storage.Backend, cleanup func() error) *SpillTransport[U] {
	np := k.Layout.NumPartitions
	t := &SpillTransport[U]{
		updBytes: k.UpdBytes,
		budget:   budget,
		backend:  backend,
		cleanup:  cleanup,
		arena:    &k.arena,
		rows:     make([]spillRow[U], np),
		pending:  make([]atomic.Int64, np),
	}
	for src := 0; src < np; src++ {
		t.rows[src].buckets = make([]spillBucket[U], np)
	}
	return t
}

// Put appends recs as one chunk of bucket (src, dst), then — if the
// in-memory total crossed the budget — spills buckets of row src until
// the total is back under budget or the row is empty.
func (t *SpillTransport[U]) Put(src, dst int, recs []UpdRec[U]) (int64, int) {
	b := &t.rows[src].buckets[dst]
	b.mem = append(b.mem, recs)
	sz := int64(len(recs)) * int64(t.updBytes)
	t.pending[dst].Add(sz)
	if t.memBytes.Add(sz) <= t.budget {
		return 0, 0
	}
	var bytes int64
	var chunks int
	for d := 0; d < len(t.rows[src].buckets) && t.memBytes.Load() > t.budget; d++ {
		n, c := t.spillBucket(src, d)
		bytes += n
		chunks += c
	}
	return bytes, chunks
}

// spillBucket writes out every in-memory chunk of bucket (src, dst),
// oldest first, preserving the record sequence on disk, and returns each
// slab to the arena as soon as the backend has its copy.
func (t *SpillTransport[U]) spillBucket(src, dst int) (int64, int) {
	b := &t.rows[src].buckets[dst]
	if len(b.mem) == 0 {
		return 0, 0
	}
	if b.stream == "" {
		b.stream = fmt.Sprintf("upd.s%04d.d%04d", src, dst)
		t.spillFiles.Add(1)
	}
	n := len(b.mem)
	var freed, written int64
	for _, recs := range b.mem {
		data := recBytes(recs)
		off, err := t.backend.Write(b.stream, data)
		if err != nil {
			// Mid-phase spill failure is unrecoverable: the update set
			// can no longer be materialized for gather.
			panic(fmt.Sprintf("drive: spill write %s: %v", b.stream, err))
		}
		b.refs = append(b.refs, chunkRef{off: off, recs: len(recs), slab: cap(recs)})
		freed += int64(len(recs)) * int64(t.updBytes)
		written += int64(len(data))
		t.arena.release(recs)
	}
	clear(b.mem)
	b.mem = b.mem[:0]
	t.memBytes.Add(-freed)
	t.spillBytes.Add(written)
	return written, n
}

// PendingBytes reports dst's encoded-equivalent bytes, spilled and
// resident.
func (t *SpillTransport[U]) PendingBytes(dst int) int64 {
	return t.pending[dst].Load()
}

// DrainFrom removes and returns bucket (src, dst)'s chunks in
// production order: the spilled prefix, then the in-memory tail. The
// bucket's spill stream is truncated once its last spilled chunk is
// released.
func (t *SpillTransport[U]) DrainFrom(dst, src int) []PendingChunk[U] {
	b := &t.rows[src].buckets[dst]
	if len(b.refs) == 0 && len(b.mem) == 0 {
		return nil
	}
	out := make([]PendingChunk[U], 0, len(b.refs)+len(b.mem))
	var drained int64
	if len(b.refs) > 0 {
		state := &drainState{stream: b.stream}
		state.remaining.Store(int64(len(b.refs)))
		for _, ref := range b.refs {
			sz := int64(ref.recs) * int64(t.updBytes)
			drained += sz
			out = append(out, PendingChunk[U]{Bytes: sz, t: t, ref: ref, drain: state})
		}
		b.refs = b.refs[:0]
	}
	for _, recs := range b.mem {
		sz := int64(len(recs)) * int64(t.updBytes)
		drained += sz
		out = append(out, PendingChunk[U]{Bytes: sz, t: t, recs: recs})
	}
	clear(b.mem)
	b.mem = b.mem[:0]
	t.pending[dst].Add(-drained)
	return out
}

// Stats reports the run's cumulative spill tallies.
func (t *SpillTransport[U]) Stats() TransportStats {
	return TransportStats{
		SpillBytes: t.spillBytes.Load(),
		SpillFiles: int(t.spillFiles.Load()),
	}
}

// Close closes the backend, if any, and then runs the cleanup hook
// (spill directory removal), returning the first error.
func (t *SpillTransport[U]) Close() error {
	var err error
	if t.backend != nil {
		err = t.backend.Close()
	}
	if t.cleanup != nil {
		if cerr := t.cleanup(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
