// Package partition implements Chaos streaming partitions (§3).
//
// A streaming partition is a set of vertices that fits in memory, all of
// their outgoing edges, and all of their incoming updates. Chaos picks the
// number of partitions as the smallest multiple of the number of machines
// such that each partition's vertex set fits in the per-machine memory
// budget, partitions the vertex set into ranges of consecutive IDs, and
// assigns each edge to the partition of its source vertex. This single
// cheap pass over the edge list is the only pre-processing Chaos performs.
package partition

import (
	"fmt"
	"math/bits"

	"chaos/internal/graph"
)

// Layout describes a streaming-partition decomposition of a vertex set.
type Layout struct {
	// NumVertices is the size of the vertex set.
	NumVertices uint64
	// NumPartitions is the chosen number of streaming partitions, always
	// a multiple of NumMachines.
	NumPartitions int
	// NumMachines is the number of computation engines.
	NumMachines int
	// PerPartition is the width of each vertex-ID range (the last
	// partition may be narrower).
	PerPartition uint64

	// recip lets Of divide by PerPartition without dividing; newLayout
	// derives it from PerPartition alone. A width d with 1 < d < 2^32 has
	// an exact reciprocal for IDs below 2^32: with recip = floor(2^64/d)
	// + 1, the high word of recip*v is v/d for every 32-bit v (Lemire,
	// Kaser & Kurz, "Faster remainder by direct computation", 2019).
	// Everything else — wider IDs or widths, a width of 1, and a Layout
	// built as a literal, whose recip is zero — takes the divide.
	recip uint64
}

func newLayout(numVertices uint64, numMachines, numPartitions int) *Layout {
	l := &Layout{
		NumVertices:   numVertices,
		NumPartitions: numPartitions,
		NumMachines:   numMachines,
		PerPartition:  ceilDiv(numVertices, uint64(numPartitions)),
	}
	if d := l.PerPartition; 1 < d && d < 1<<32 {
		l.recip = ^uint64(0)/d + 1
	}
	return l
}

// MaxPartitions bounds the partition count NewLayout will choose. Both
// drivers keep per-partition state and the native transport one bucket
// per partition pair, so memory grows with the square of the count: a
// memory budget of a few bytes (one partition per vertex) or a
// four-digit machine count would otherwise exhaust the host before the
// run starts. The largest layout the full-scale figures reach is 256
// partitions (32 machines); tests and the benchmark stay at or under 64.
const MaxPartitions = 1024

// NewLayout chooses the partitioning for numVertices vertices across
// numMachines machines, where each vertex record occupies vertexBytes and
// each machine can dedicate memBudget bytes to a partition's vertex set
// (plus auxiliary structures, which the caller folds into the budget, as
// X-Stream does).
//
// Per §3, the partition count is the smallest multiple of the machine count
// whose per-partition vertex set fits the budget; a budget or machine
// count that needs more than MaxPartitions is an error.
func NewLayout(numVertices uint64, numMachines int, vertexBytes, memBudget int64) (*Layout, error) {
	if numMachines <= 0 {
		return nil, fmt.Errorf("partition: need at least one machine, got %d", numMachines)
	}
	if numVertices == 0 {
		return nil, fmt.Errorf("partition: empty vertex set")
	}
	if vertexBytes <= 0 || memBudget < vertexBytes {
		return nil, fmt.Errorf("partition: memory budget %d cannot hold a single %d-byte vertex", memBudget, vertexBytes)
	}
	maxPerPartition := uint64(memBudget / vertexBytes)
	for p := numMachines; p <= MaxPartitions; p += numMachines {
		if ceilDiv(numVertices, uint64(p)) <= maxPerPartition {
			return newLayout(numVertices, numMachines, p), nil
		}
	}
	return nil, fmt.Errorf("partition: %d vertices on %d machines under a %d-byte memory budget need more than %d partitions",
		numVertices, numMachines, memBudget, MaxPartitions)
}

// FixedLayout builds a layout with an explicit partition count, which must
// be a positive multiple of numMachines. It is used by tests and by
// experiments that sweep the partition count directly.
func FixedLayout(numVertices uint64, numMachines, numPartitions int) (*Layout, error) {
	if numPartitions <= 0 || numPartitions%numMachines != 0 {
		return nil, fmt.Errorf("partition: count %d is not a positive multiple of machines %d", numPartitions, numMachines)
	}
	return newLayout(numVertices, numMachines, numPartitions), nil
}

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }

// Of returns the partition owning vertex v.
func (l *Layout) Of(v graph.VertexID) int {
	var p uint64
	if l.recip != 0 && uint64(v) < 1<<32 {
		p, _ = bits.Mul64(l.recip, uint64(v))
	} else {
		p = uint64(v) / l.PerPartition
	}
	if p >= uint64(l.NumPartitions) {
		// Only reachable for IDs beyond NumVertices; clamp defensively.
		p = uint64(l.NumPartitions - 1)
	}
	return int(p)
}

// Reciprocal is the constant Of multiplies an ID below 2^32 by instead
// of dividing it by PerPartition, or 0 where Of always divides.
func (l *Layout) Reciprocal() uint64 { return l.recip }

// Range returns the vertex-ID range [lo, hi) of partition p.
func (l *Layout) Range(p int) (lo, hi graph.VertexID) {
	lo = graph.VertexID(uint64(p) * l.PerPartition)
	hi = graph.VertexID(uint64(p+1) * l.PerPartition)
	if uint64(hi) > l.NumVertices {
		hi = graph.VertexID(l.NumVertices)
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Size returns the number of vertices in partition p.
func (l *Layout) Size(p int) uint64 {
	lo, hi := l.Range(p)
	return uint64(hi - lo)
}

// Master returns the machine initially assigned partition p (§5: the
// number of partitions is a multiple k of the engines; engine i masters
// partitions i, i+m, i+2m, ...).
func (l *Layout) Master(p int) int { return p % l.NumMachines }

// PartitionsOf returns the partitions mastered by machine m, in order.
func (l *Layout) PartitionsOf(m int) []int {
	var ps []int
	for p := m; p < l.NumPartitions; p += l.NumMachines {
		ps = append(ps, p)
	}
	return ps
}

// BinEdges performs the pre-processing pass in memory: one scan of the edge
// list, binning each edge by the partition of its source. The engine's
// distributed pre-processing streams edges instead but uses the same rule.
func (l *Layout) BinEdges(edges []graph.Edge) [][]graph.Edge {
	bins := make([][]graph.Edge, l.NumPartitions)
	for _, e := range edges {
		p := l.Of(e.Src)
		bins[p] = append(bins[p], e)
	}
	return bins
}

func (l *Layout) String() string {
	return fmt.Sprintf("layout{V=%d machines=%d partitions=%d per=%d}",
		l.NumVertices, l.NumMachines, l.NumPartitions, l.PerPartition)
}
