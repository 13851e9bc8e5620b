// Package rmat generates R-MAT graphs (Chakrabarti, Zhan, Faloutsos, SDM
// 2004), the synthetic workload used throughout the Chaos evaluation. A
// scale-n graph has 2^n vertices and 2^(n+4) edges (§8), i.e. an average
// degree of 16, and a heavily skewed degree distribution — the skew is what
// makes streaming partitions unbalanced and work stealing worthwhile.
package rmat

import (
	"math/rand"

	"chaos/internal/graph"
)

// Default recursion probabilities, the values popularized by Graph500.
const (
	DefaultA = 0.57
	DefaultB = 0.19
	DefaultC = 0.19
	DefaultD = 0.05
)

// Generator produces R-MAT edges deterministically from a seed.
type Generator struct {
	// Scale is the R-MAT scale: 2^Scale vertices, 2^(Scale+4) edges.
	Scale int
	// A, B, C, D are the quadrant probabilities; they must sum to 1.
	A, B, C, D float64
	// Weighted attaches uniform [0,1) weights to edges.
	Weighted bool
	// Seed selects the random stream.
	Seed int64
}

// New returns a generator for the given scale with default parameters.
func New(scale int, seed int64) *Generator {
	return &Generator{Scale: scale, A: DefaultA, B: DefaultB, C: DefaultC, D: DefaultD, Seed: seed}
}

// NumVertices returns 2^Scale.
func (g *Generator) NumVertices() uint64 { return 1 << uint(g.Scale) }

// NumEdges returns 2^(Scale+4).
func (g *Generator) NumEdges() uint64 { return 1 << uint(g.Scale+4) }

// Format returns the natural binary format for this graph (§8: compact
// below 2^32 vertices).
func (g *Generator) Format() graph.Format {
	return graph.FormatFor(g.NumVertices(), g.Weighted)
}

// Generate materializes the full edge list in memory: Each over one
// batch that holds the whole graph. Intended for laboratory scales; for
// streaming use Each.
func (g *Generator) Generate() []graph.Edge {
	edges := make([]graph.Edge, g.NumEdges())
	g.Each(edges, func([]graph.Edge) {})
	return edges
}

// Each generates the edges in Generate's order a batch at a time: it
// fills batch, which must not be empty, and calls fn on the filled part,
// the last time with the remainder. fn must not keep the slice. A caller
// that encodes the edges holds one batch of them, not all.
func (g *Generator) Each(batch []graph.Edge, fn func([]graph.Edge)) {
	rng, t := rand.New(rand.NewSource(g.Seed)), g.thresholds()
	for n := g.NumEdges(); n > 0; {
		b := batch[:min(n, uint64(len(batch)))]
		for i := range b {
			b[i] = g.edge(rng, t)
		}
		fn(b)
		n -= uint64(len(b))
	}
}

// thresholds are the cumulative quadrant probabilities A, A+B and A+B+C:
// quadrants A, B, C and D, whose (src, dst) bits are 00, 01, 10 and 11,
// tile [0, 1) in that order.
type thresholds struct{ a, ab, abc float64 }

func (g *Generator) thresholds() thresholds { return thresholds{g.A, g.A + g.B, g.A + g.B + g.C} }

// edge draws one edge by recursive quadrant descent, consuming exactly
// Scale Float64s, then a Float32 when weighted (restored graphs depend on
// that count). r is uniform, so a branch on it mispredicts: of the three
// thresholds r passed, the count's high bit is src's, its parity dst's.
func (g *Generator) edge(rng *rand.Rand, t thresholds) graph.Edge {
	var src, dst uint64
	for level := 0; level < g.Scale; level++ {
		r := rng.Float64()
		src = src<<1 | bit(r >= t.ab)
		dst = dst<<1 | (bit(r >= t.a) ^ bit(r >= t.ab) ^ bit(r >= t.abc))
	}
	e := graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)}
	if g.Weighted {
		e.Weight = rng.Float32()
	}
	return e
}

// bit converts a comparison to 0 or 1; the compiler emits a SETcc.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
