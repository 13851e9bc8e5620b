// Package graph defines the on-disk and in-memory graph representations
// shared by the Chaos engine, its baselines, and the workload generators.
//
// Following the paper (§8), the input to a computation is an unsorted edge
// list. Each edge carries its source and target vertex and an optional
// weight. Graphs with fewer than 2^32 vertices use the compact format
// (4 bytes per vertex ID and per weight); larger graphs use the non-compact
// format (8 bytes per ID).
package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// VertexID identifies a vertex. IDs are dense: a graph with N vertices uses
// IDs 0..N-1.
type VertexID uint64

// Edge is a directed edge with an optional weight. For unweighted graphs
// and formats the weight is carried as zero.
type Edge struct {
	Src, Dst VertexID
	Weight   float32
}

// CompactEdge is one record of the compact unweighted format as it lies
// in memory on a little-endian host: Encode writes Src at byte 0 and Dst
// at byte 4, so a buffer of such records already is a []CompactEdge.
type CompactEdge struct {
	Src, Dst uint32
}

// Edge widens the record.
func (e CompactEdge) Edge() Edge { return Edge{Src: VertexID(e.Src), Dst: VertexID(e.Dst)} }

// CompactWeightedEdge is CompactEdge of the compact weighted format,
// whose weight Encode writes at byte 8.
type CompactWeightedEdge struct {
	Src, Dst uint32
	Weight   float32
}

// Edge widens the record.
func (e CompactWeightedEdge) Edge() Edge {
	return Edge{Src: VertexID(e.Src), Dst: VertexID(e.Dst), Weight: e.Weight}
}

// CompactRecord is the type set of the compact formats' records.
type CompactRecord interface {
	CompactEdge | CompactWeightedEdge
}

// Format describes the binary edge record layout.
type Format struct {
	// Compact selects 4-byte vertex IDs (valid for < 2^32 vertices).
	Compact bool
	// Weighted adds a 4-byte IEEE-754 weight to every record.
	Weighted bool
}

// FormatFor returns the natural format for a graph with numVertices
// vertices, compact when the IDs fit in 32 bits (§8).
func FormatFor(numVertices uint64, weighted bool) Format {
	return Format{Compact: numVertices < 1<<32, Weighted: weighted}
}

// EdgeSize returns the size in bytes of one edge record.
func (f Format) EdgeSize() int {
	s := 16
	if f.Compact {
		s = 8
	}
	if f.Weighted {
		s += 4
	}
	return s
}

// Encode writes e into buf, which must be at least EdgeSize bytes.
func (f Format) Encode(buf []byte, e Edge) {
	if f.Compact {
		binary.LittleEndian.PutUint32(buf[0:4], uint32(e.Src))
		binary.LittleEndian.PutUint32(buf[4:8], uint32(e.Dst))
		if f.Weighted {
			binary.LittleEndian.PutUint32(buf[8:12], floatBits(e.Weight))
		}
		return
	}
	binary.LittleEndian.PutUint64(buf[0:8], uint64(e.Src))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(e.Dst))
	if f.Weighted {
		binary.LittleEndian.PutUint32(buf[16:20], floatBits(e.Weight))
	}
}

// Decode reads one edge record from buf.
func (f Format) Decode(buf []byte) Edge {
	var e Edge
	if f.Compact {
		e.Src = VertexID(binary.LittleEndian.Uint32(buf[0:4]))
		e.Dst = VertexID(binary.LittleEndian.Uint32(buf[4:8]))
		if f.Weighted {
			e.Weight = floatFromBits(binary.LittleEndian.Uint32(buf[8:12]))
		}
		return e
	}
	e.Src = VertexID(binary.LittleEndian.Uint64(buf[0:8]))
	e.Dst = VertexID(binary.LittleEndian.Uint64(buf[8:16]))
	if f.Weighted {
		e.Weight = floatFromBits(binary.LittleEndian.Uint32(buf[16:20]))
	}
	return e
}

func (f Format) String() string {
	n, w := "non-compact", "unweighted"
	if f.Compact {
		n = "compact"
	}
	if f.Weighted {
		w = "weighted"
	}
	return fmt.Sprintf("%s/%s (%dB/edge)", n, w, f.EdgeSize())
}

// EncodeEdges appends the binary encoding of edges to dst and returns the
// extended slice.
func (f Format) EncodeEdges(dst []byte, edges []Edge) []byte {
	sz := f.EdgeSize()
	off := len(dst)
	dst = append(dst, make([]byte, sz*len(edges))...)
	for _, e := range edges {
		f.Encode(dst[off:off+sz], e)
		off += sz
	}
	return dst
}

// DecodeEdges appends all edge records in buf to dst and returns the
// extended slice. len(buf) must be a multiple of EdgeSize. It is the bulk
// form of Decode for the per-edge hot loops: the format is examined once,
// outside the loop, and each of the four layouts has a straight-line
// decode of its own (Decode stays the reference they are tested against).
func (f Format) DecodeEdges(dst []Edge, buf []byte) []Edge {
	sz := f.EdgeSize()
	if len(buf)%sz != 0 {
		panic(fmt.Sprintf("graph: buffer of %d bytes is not a whole number of %dB edges", len(buf), sz))
	}
	base := len(dst)
	dst = slices.Grow(dst, len(buf)/sz)[:base+len(buf)/sz]
	out := dst[base:]
	le := binary.LittleEndian
	switch f {
	case Format{Compact: true}:
		for i := range out {
			rec := buf[i*8 : i*8+8]
			out[i] = Edge{Src: VertexID(le.Uint32(rec)), Dst: VertexID(le.Uint32(rec[4:]))}
		}
	case Format{Compact: true, Weighted: true}:
		for i := range out {
			rec := buf[i*12 : i*12+12]
			out[i] = Edge{Src: VertexID(le.Uint32(rec)), Dst: VertexID(le.Uint32(rec[4:])), Weight: floatFromBits(le.Uint32(rec[8:]))}
		}
	case Format{}:
		for i := range out {
			rec := buf[i*16 : i*16+16]
			out[i] = Edge{Src: VertexID(le.Uint64(rec)), Dst: VertexID(le.Uint64(rec[8:]))}
		}
	default:
		for i := range out {
			rec := buf[i*20 : i*20+20]
			out[i] = Edge{Src: VertexID(le.Uint64(rec)), Dst: VertexID(le.Uint64(rec[8:])), Weight: floatFromBits(le.Uint32(rec[16:]))}
		}
	}
	return dst
}
