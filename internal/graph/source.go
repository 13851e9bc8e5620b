package graph

import "fmt"

// Source is an edge list read by position: the input of §3
// pre-processing on both execution planes, which streams it once, each
// machine its own contiguous range. An edge slice, a buffer of §8
// records and the undirected and augmented views over either are all
// sources, so a view is read through its base instead of copied.
//
// Every implementation is a pointer type: a bin cache recognizes the
// source it was built from by interface equality, which panics on a
// dynamic type that is not comparable.
type Source interface {
	// Len is the number of edges.
	Len() int
	// Range calls fn on edges [lo, hi) in order, in one or more
	// non-empty batches. A batch may lie in scratch or in the source's
	// own memory, so fn must neither keep nor modify it. scratch is the
	// caller's, at least MinScratch edges; Range allocates no edge
	// memory of its own. Calls with distinct scratch buffers may run
	// concurrently.
	Range(lo, hi int, scratch []Edge, fn func([]Edge))
}

// MinScratch is the shortest scratch Range accepts: a view splits it
// between its base's batch and the edges it expands that batch into.
const MinScratch = 3

// SplitScratch is how a view splits scratch: a third for its base's
// batches, the rest for the edges it expands them into, at most two per
// base edge.
func SplitScratch(scratch []Edge) (base, out []Edge) {
	r := len(scratch) / 3
	if r == 0 {
		panic(fmt.Sprintf("graph: scratch of %d edges is under MinScratch", len(scratch)))
	}
	return scratch[2*r : 3*r : 3*r], scratch[: 2*r : 2*r]
}

// NewScratch returns a scratch buffer for Range. A caller keeps one per
// concurrent reader for the length of its run.
func NewScratch() []Edge { return make([]Edge, 1<<10) }

// Collect materializes src.
func Collect(src Source) []Edge {
	out := make([]Edge, 0, src.Len())
	src.Range(0, src.Len(), NewScratch(), func(batch []Edge) { out = append(out, batch...) })
	return out
}

// SliceSource is an edge slice read in place: Range yields sub-slices
// and never copies.
type SliceSource struct{ edges []Edge }

// Edges returns the source over edges.
func Edges(edges []Edge) *SliceSource { return &SliceSource{edges} }

// Len implements Source.
func (s *SliceSource) Len() int { return len(s.edges) }

// Range implements Source: one batch, edges[lo:hi] itself.
func (s *SliceSource) Range(lo, hi int, _ []Edge, fn func([]Edge)) {
	if batch := s.edges[lo:hi]; len(batch) > 0 {
		fn(batch)
	}
}

// RecordSource is a buffer of §8 edge records, decoded into the
// caller's scratch as it is read: a graph held this way costs its
// record size, 8 to 20 bytes an edge, instead of an Edge's 24.
type RecordSource struct {
	data []byte
	f    Format
	n    int
	// vertices is a count every record names a vertex below (Vouch), 0
	// when none is known.
	vertices uint64
}

// Records returns the source over data, records in format f. It is an
// error when data is not a whole number of records. The source reads
// data in place; the caller must not modify it.
func Records(data []byte, f Format) (*RecordSource, error) {
	sz := f.EdgeSize()
	if len(data)%sz != 0 {
		return nil, fmt.Errorf("graph: %d bytes are not a whole number of %dB edge records", len(data), sz)
	}
	return &RecordSource{data: data, f: f, n: len(data) / sz}, nil
}

// Len implements Source.
func (r *RecordSource) Len() int { return r.n }

// Vouch records that every record of r names a vertex below n, which
// the caller has established: r was encoded from a generator of n
// vertices, or VertexCount has read it against n. VertexCount then
// accepts a count of n or more for r, and for the views over it, without
// reading a record. Call it before r is shared.
func (r *RecordSource) Vouch(n uint64) { r.vertices = n }

// Bytes is the record buffer.
func (r *RecordSource) Bytes() []byte { return r.data }

// Range implements Source: batches of up to len(scratch) edges, decoded
// into scratch.
func (r *RecordSource) Range(lo, hi int, scratch []Edge, fn func([]Edge)) {
	sz := r.f.EdgeSize()
	recs := r.data[lo*sz : hi*sz]
	step := len(scratch) * sz
	for len(recs) > 0 {
		n := min(len(recs), step)
		fn(r.f.DecodeEdges(scratch[:0], recs[:n]))
		recs = recs[n:]
	}
}

// loopBlock is how many base edges one entry of an undirected view's
// self-loop index covers: Range reads at most this many base edges
// before its first and after its last.
const loopBlock = 256

// UndirectedSource is the undirected view of a base source (§8: "we
// convert directed to undirected graphs by adding a reverse edge"):
// each base edge followed by its reverse, except a self-loop, which is
// its own reverse and appears once (duplicating it would double the
// loop's degree and weight contribution). Because of the self-loops a
// view position's base edge is not a fixed offset away; the view keeps
// the self-loop count before every loopBlock-th base edge to find it.
type UndirectedSource struct {
	base Source
	n    int
	// loops[b] counts the self-loops among base edges [0, b·loopBlock).
	loops []int
}

// UndirectedView returns the undirected view of base. It reads base
// once, to index its self-loops.
func UndirectedView(base Source) *UndirectedSource {
	raw := base.Len()
	loops := make([]int, 1, raw/loopBlock+1)
	count, i := 0, 0
	base.Range(0, raw, NewScratch(), func(batch []Edge) {
		for len(batch) > 0 {
			n := min(len(batch), loopBlock-i%loopBlock) // to the block's end
			c := count
			for _, e := range batch[:n] {
				if e.Src == e.Dst {
					c++
				}
			}
			count, i, batch = c, i+n, batch[n:]
			if i%loopBlock == 0 {
				loops = append(loops, count)
			}
		}
	})
	return &UndirectedSource{base: base, n: 2*raw - count, loops: loops}
}

// Undirected returns the undirected view of edges, materialized.
func Undirected(edges []Edge) []Edge { return Collect(UndirectedView(Edges(edges))) }

// Len implements Source.
func (u *UndirectedSource) Len() int { return u.n }

// Base is the source u is a view of.
func (u *UndirectedSource) Base() Source { return u.base }

// IndexBytes is what the self-loop index holds.
func (u *UndirectedSource) IndexBytes() int64 { return int64(cap(u.loops)) * 8 }

// block returns the index entry whose block holds view position v.
func (u *UndirectedSource) block(v int) int {
	lo, hi := 0, len(u.loops) // the answer is in [lo, hi)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if 2*mid*loopBlock-u.loops[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Range implements Source: it reads base from the start of the block
// holding lo to the end of the one holding hi−1 in a third of scratch,
// expands it into the rest and yields the positions in [lo, hi).
func (u *UndirectedSource) Range(lo, hi int, scratch []Edge, fn func([]Edge)) {
	if lo < 0 || hi > u.n || lo > hi {
		panic(fmt.Sprintf("graph: range [%d, %d) of an undirected view of %d edges", lo, hi, u.n))
	}
	if lo == hi {
		return
	}
	raw, out := SplitScratch(scratch)
	b := u.block(lo)
	pos := 2*b*loopBlock - u.loops[b] // the view position of base edge b·loopBlock
	end := min((u.block(hi-1)+1)*loopBlock, u.base.Len())
	k := 0 // out[:k] is expanded and not yet yielded
	u.base.Range(b*loopBlock, end, raw, func(batch []Edge) {
		o, p, j := out, pos, k // locals, not the closure's shared variables, in the loop
		for _, e := range batch {
			if p >= hi {
				break
			}
			if j > len(o)-2 {
				fn(o[:j])
				j = 0
			}
			if p >= lo {
				o[j] = e
				j++
			}
			p++
			if e.Src != e.Dst {
				if p >= lo && p < hi {
					o[j] = Edge{Src: e.Dst, Dst: e.Src, Weight: e.Weight}
					j++
				}
				p++
			}
		}
		pos, k = p, j
	})
	if k > 0 {
		fn(out[:k])
	}
}
