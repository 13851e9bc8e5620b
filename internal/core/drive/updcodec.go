package drive

import (
	"encoding/binary"
	"slices"
)

// The update byte format of §8: an IDBytes-wide little-endian ID field
// carrying UpdRec.Off, then the payload's codec bytes, UpdBytes in all.
// Neither driver makes these bytes — the native plane moves typed slabs,
// and the DES charges records × UpdBytes for the same slabs — so the
// methods below serve only bench/'s layer probes and the §8 wire-size
// tests. They go with those probes at the benchmark's next revision
// (ROADMAP.md item 9).

// AppendUpdate encodes one update record onto buf: the ID field (4 or 8
// bytes, §8), which carries r.Off, then the payload. With DecodeUpdate it
// is the per-record definition of the update wire format.
func (k *Kernel[V, U, A]) AppendUpdate(buf []byte, r *UpdRec[U]) []byte {
	off := len(buf)
	buf = append(buf, make([]byte, k.UpdBytes)...)
	if k.IDBytes == 4 {
		binary.LittleEndian.PutUint32(buf[off:], r.Off)
	} else {
		binary.LittleEndian.PutUint64(buf[off:], uint64(r.Off))
	}
	k.UpdCodec.Put(buf[off+k.IDBytes:], &r.Val)
	return buf
}

// AppendRecs encodes a typed record slice onto buf, the inverse of
// DecodeUpdateChunk: buf grows once, to the chunk's encoded size.
func (k *Kernel[V, U, A]) AppendRecs(buf []byte, recs []UpdRec[U]) []byte {
	buf = slices.Grow(buf, len(recs)*k.UpdBytes)
	for i := range recs {
		buf = k.AppendUpdate(buf, &recs[i])
	}
	return buf
}

// DecodeUpdate decodes one update record into *r, the inverse of
// AppendUpdate: the ID field into r.Off, the payload into r.Val. It
// decodes in place (see gas.Codec): r points into the caller's record
// slice, so nothing escapes per record.
func (k *Kernel[V, U, A]) DecodeUpdate(rec []byte, r *UpdRec[U]) {
	if k.IDBytes == 4 {
		r.Off = binary.LittleEndian.Uint32(rec)
	} else {
		r.Off = uint32(binary.LittleEndian.Uint64(rec))
	}
	k.UpdCodec.Get(rec[k.IDBytes:], &r.Val)
}

// DecodeUpdateChunk decodes one update chunk, appending to recs (nil for
// a fresh slab): every record decodes into its own slot, and a trailing
// partial record is dropped. When recs cannot hold the chunk, the result
// is an arena slab that can and recs goes back to the arena — the caller
// keeps only the result.
func (k *Kernel[V, U, A]) DecodeUpdateChunk(recs []UpdRec[U], data []byte) []UpdRec[U] {
	ub := k.UpdBytes
	n := len(data) / ub
	base := len(recs)
	if cap(recs) < base+n {
		recs = k.regrowRecs(recs, base+n)
	}
	recs = recs[:base+n]
	for i := 0; i < n; i++ {
		k.DecodeUpdate(data[i*ub:], &recs[base+i])
	}
	return recs
}

// ScatterChunk is ScatterChunkTyped with its records encoded per
// destination partition into out.Updates, their slabs back in the arena.
func (k *Kernel[V, U, A]) ScatterChunk(iter, part int, verts []V, data []byte, out *ScatterOut[U]) {
	k.ScatterChunkTyped(iter, part, verts, data, out)
	out.Updates = k.GrabParts()
	for tp, recs := range out.Typed {
		if recs != nil {
			out.Updates[tp] = k.AppendRecs(k.GrabBuf(), recs)
		}
	}
	k.releaseTyped(out)
}

// GrabParts returns a pooled per-destination-partition buffer table.
func (k *Kernel[V, U, A]) GrabParts() [][]byte {
	if v := k.partsPool.Get(); v != nil {
		return v.([][]byte)
	}
	return make([][]byte, k.Layout.NumPartitions)
}

// releaseUpdates returns ScatterChunk's encoded buffers and their table to
// the pools.
func (k *Kernel[V, U, A]) releaseUpdates(out *ScatterOut[U]) {
	if out.Updates == nil {
		return
	}
	for tp, b := range out.Updates {
		if b != nil {
			k.ReleaseBuf(b)
			out.Updates[tp] = nil
		}
	}
	k.partsPool.Put(out.Updates)
	out.Updates = nil
}
