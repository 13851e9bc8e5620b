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
// ID is 2^64−1.
func VertexCount(src Source, n uint64) (uint64, error) {
	// A view's edges name exactly its base's vertices: read the base.
	if v, ok := src.(interface{ Base() Source }); ok {
		src = v.Base()
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
