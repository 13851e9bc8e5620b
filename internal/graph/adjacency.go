package graph

// Adjacency is an in-memory adjacency-list view of an edge list. It backs
// the sequential reference implementations used to validate the Chaos
// engine; the engine itself never materializes adjacency lists.
type Adjacency struct {
	// N is the number of vertices.
	N uint64
	// Out[v] lists the outgoing edges of v.
	Out [][]Edge
}

// BuildAdjacency constructs adjacency lists for n vertices. If n is zero it
// is inferred from the largest referenced vertex.
func BuildAdjacency(edges []Edge, n uint64) *Adjacency {
	if n == 0 {
		n = MaxVertex(edges)
	}
	deg := make([]int, n)
	for _, e := range edges {
		deg[e.Src]++
	}
	out := make([][]Edge, n)
	for v := range out {
		if deg[v] > 0 {
			out[v] = make([]Edge, 0, deg[v])
		}
	}
	for _, e := range edges {
		out[e.Src] = append(out[e.Src], e)
	}
	return &Adjacency{N: n, Out: out}
}

// NumEdges returns the total number of directed edges.
func (a *Adjacency) NumEdges() uint64 {
	var m uint64
	for _, es := range a.Out {
		m += uint64(len(es))
	}
	return m
}
