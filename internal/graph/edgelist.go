package graph

import "fmt"

// Generator is a synthetic graph (package rmat's or webgraph's): its
// vertex count, the §8 format of its records, and its edges in a fixed
// order. Each fills batch, which must not be empty, and calls fn on the
// filled part, the last time with the remainder; fn must not keep the
// slice. Every producer of a generated graph's records is one loop over
// these batches into Format.EncodeEdges.
type Generator interface {
	NumVertices() uint64
	Format() Format
	Each(batch []Edge, fn func([]Edge))
}

// MaxVertex returns one past the largest vertex ID referenced, i.e. the
// vertex-set size for densely numbered graphs. It returns 0 when there is
// no such size: for an empty edge list, and for one naming vertex
// 2^64−1, whose count a uint64 cannot hold (VertexCount says which).
func MaxVertex(edges []Edge) uint64 {
	n, _ := VertexCount(Edges(edges), 0)
	return n
}

// VertexCount returns the vertex-set size of src, read in one pass: n
// when every ID named is below it, and an error naming the largest ID
// when one is not. For n == 0 the size is inferred, one past the largest
// ID, and it is an error when there is nothing to infer it from or the
// ID is 2^64−1. A RecordSource vouched for at n or fewer vertices
// (RecordSource.Vouch) is not read.
func VertexCount(src Source, n uint64) (uint64, error) {
	// A view's edges name exactly its base's vertices: read the base.
	if v, ok := src.(interface{ Base() Source }); ok {
		src = v.Base()
	}
	if r, ok := src.(*RecordSource); ok && r.vertices != 0 && n >= r.vertices {
		return n, nil
	}
	var top VertexID
	src.Range(0, src.Len(), NewScratch(), func(batch []Edge) {
		t := top
		for _, e := range batch {
			t = max(t, e.Src, e.Dst)
		}
		top = t
	})
	switch {
	case n != 0 && uint64(top) >= n:
		return 0, fmt.Errorf("an edge names vertex %d, but the graph has %d vertices", top, n)
	case n != 0:
		return n, nil
	case src.Len() == 0:
		return 0, fmt.Errorf("empty graph")
	case top == ^VertexID(0):
		return 0, fmt.Errorf("an edge names vertex %d, past the largest vertex count", top)
	}
	return uint64(top) + 1, nil
}
