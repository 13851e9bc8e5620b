package graph

import (
	"bufio"
	"fmt"
	"io"
)

// Writer streams binary edge records to an underlying writer.
type Writer struct {
	w   *bufio.Writer
	f   Format
	buf []byte
	n   uint64
}

// NewWriter creates an edge-list writer using format f.
func NewWriter(w io.Writer, f Format) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<20), f: f, buf: make([]byte, f.EdgeSize())}
}

// WriteEdge appends one edge record.
func (w *Writer) WriteEdge(e Edge) error {
	w.f.Encode(w.buf, e)
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of edges written so far.
func (w *Writer) Count() uint64 { return w.n }

// Flush writes any buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams binary edge records from an underlying reader.
type Reader struct {
	r   *bufio.Reader
	f   Format
	buf []byte
}

// NewReader creates an edge-list reader expecting format f.
func NewReader(r io.Reader, f Format) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<20), f: f, buf: make([]byte, f.EdgeSize())}
}

// ReadEdge returns the next edge, or io.EOF after the last record. A
// truncated final record is reported as an error.
func (r *Reader) ReadEdge() (Edge, error) {
	_, err := io.ReadFull(r.r, r.buf)
	if err == io.ErrUnexpectedEOF {
		return Edge{}, fmt.Errorf("graph: truncated edge record: %w", err)
	}
	if err != nil {
		return Edge{}, err
	}
	return r.f.Decode(r.buf), nil
}

// ReadAll reads every remaining edge.
func (r *Reader) ReadAll() ([]Edge, error) {
	var edges []Edge
	for {
		e, err := r.ReadEdge()
		if err == io.EOF {
			return edges, nil
		}
		if err != nil {
			return edges, err
		}
		edges = append(edges, e)
	}
}

// Undirected returns the edge list converted for undirected algorithms by
// adding the reverse of every edge (§8: "we convert directed to undirected
// graphs by adding a reverse edge"). A self-loop is its own reverse and is
// emitted once; duplicating it would double the loop's degree and weight
// contribution in every undirected view.
func Undirected(edges []Edge) []Edge {
	out := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		if e.Src == e.Dst {
			out = append(out, e)
			continue
		}
		out = append(out, e, Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight})
	}
	return out
}

// MaxVertex returns one past the largest vertex ID referenced, i.e. the
// vertex-set size for densely numbered graphs. It returns 0 when there is
// no such size: for an empty edge list, and for one naming vertex
// 2^64−1, whose count a uint64 cannot hold (VertexCount says which).
func MaxVertex(edges []Edge) uint64 {
	n, _ := VertexCount(edges, 0)
	return n
}

// VertexCount returns the vertex-set size of edges: n when every ID
// named is below it, and an error naming the largest ID when one is not.
// For n == 0 the size is inferred, one past the largest ID, and it is an
// error when there is nothing to infer it from or the ID is 2^64−1.
func VertexCount(edges []Edge, n uint64) (uint64, error) {
	var top VertexID
	for _, e := range edges {
		top = max(top, e.Src, e.Dst)
	}
	switch {
	case n != 0 && uint64(top) >= n:
		return 0, fmt.Errorf("an edge names vertex %d, but the graph has %d vertices", top, n)
	case n != 0:
		return n, nil
	case len(edges) == 0:
		return 0, fmt.Errorf("empty graph")
	case top == ^VertexID(0):
		return 0, fmt.Errorf("an edge names vertex %d, past the largest vertex count", top)
	}
	return uint64(top) + 1, nil
}
