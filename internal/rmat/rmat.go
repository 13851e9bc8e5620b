// Package rmat generates R-MAT graphs (Chakrabarti, Zhan, Faloutsos, SDM
// 2004), the synthetic workload used throughout the Chaos evaluation. A
// scale-n graph has 2^n vertices and 2^(n+4) edges (§8), i.e. an average
// degree of 16, and a heavily skewed degree distribution — the skew is what
// makes streaming partitions unbalanced and work stealing worthwhile.
package rmat

import (
	"fmt"
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

// The scales the service, chaos-gen and chaos-run generate. Past them a
// graph outgrows any host: scale 31 is 2^35 edges, 768 GiB as Edges,
// and from scale 60 on NumEdges wraps to 0. Generator itself is exact
// at any scale.
const (
	minScale = 1
	maxScale = 30
)

// CheckScale returns an error naming the range when scale is outside
// the one every R-MAT entry point generates.
func CheckScale(scale int) error {
	if scale < minScale || scale > maxScale {
		return fmt.Errorf("rmat scale %d out of range [%d,%d]", scale, minScale, maxScale)
	}
	return nil
}

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
	g.each(rand.NewSource(g.Seed).(rand.Source64), g.NumEdges(), batch, fn)
}

// each is Each over the first n edges of the stream src begins.
func (g *Generator) each(src rand.Source64, n uint64, batch []graph.Edge, fn func([]graph.Edge)) {
	var s stream
	var q quadrants
	s.seed(src)
	q.set(g.A, g.A+g.B, g.A+g.B+g.C)
	for n > 0 {
		b := batch[:min(n, uint64(len(batch)))]
		for i := range b {
			b[i] = g.edge(&s, &q)
		}
		fn(b)
		n -= uint64(len(b))
	}
}

// edge draws one edge by recursive quadrant descent, consuming what
// Scale calls of math/rand's Float64 would, then what a Float32 would
// when weighted: restored graphs depend on that count.
func (g *Generator) edge(s *stream, q *quadrants) graph.Edge {
	var src, dst uint64
	if w, ok := q.word(s, g.Scale); ok {
		src, dst = evens(w>>1), evens(w)
	} else {
		src, dst = q.exactly(s, g.Scale)
	}
	e := graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)}
	if g.Weighted {
		e.Weight = s.float32()
	}
	return e
}

// The lags of math/rand's additive lagged-Fibonacci source (its rngLen
// and rngTap): from output 607 on, y[k] = y[k-607] + y[k-273] mod 2^64.
const (
	lagLong  = 607
	lagShort = 273
	block    = 4096 // outputs computed per refill
)

// stream yields the outputs of a math/rand source without a call
// through its interface per draw. A source's first 607 outputs are its
// whole feedback register; seed reads them from the source, and refill
// continues the same recurrence a block at a time. y holds the 607
// outputs before the block, then the block.
type stream struct {
	y   [lagLong + block]uint64
	pos int // the next output's index in y
}

func (s *stream) seed(src rand.Source64) {
	s.pos = len(s.y) - lagLong
	for i := s.pos; i < len(s.y); i++ {
		s.y[i] = src.Uint64()
	}
}

func (s *stream) refill() {
	copy(s.y[:lagLong], s.y[block:])
	for i := lagLong; i < len(s.y); i++ {
		s.y[i] = s.y[i-lagLong] + s.y[i-lagShort]
	}
	s.pos = lagLong
}

// next returns the next Int63 draw: Float64 returns it over 2^63.
func (s *stream) next() uint64 {
	if s.pos == len(s.y) {
		s.refill()
	}
	u := s.y[s.pos] & (1<<63 - 1)
	s.pos++
	return u
}

// float32 is math/rand's Float32: a Float64 rounded to float32, drawn
// again while either rounds to 1.
func (s *stream) float32() float32 {
	for {
		if w := float32(float64(s.next()) / (1 << 63)); w != 1 {
			return w // a Float64 of 1 rounds to 1 too
		}
	}
}

// least returns the smallest u in [0, 2^63] with float64(u)/(1<<63) >=
// p, or 2^63+1 when no u has it (p > 1, or NaN). The ratio is monotone
// in u, so for an Int63 draw u, u >= least(p) exactly when the Float64
// it makes is >= p: the integer compare decides what the float one
// would, for any float p, without rounding an argument.
func least(p float64) uint64 {
	lo, hi := uint64(0), uint64(1<<63+1) // the answer is in [lo, hi]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

const (
	bucketShift = 63 - 12 // a draw's bucket is its top 12 bits
	exact       = 4       // a bucket entry for "compare the draw itself"
)

// quadrants picks a level's quadrant from a draw: A, B, C and D, whose
// (src, dst) bits are 00, 01, 10 and 11, tile the draws in that order at
// the integer thresholds of A, A+B and A+B+C; draws from least(1) on
// are the ones Float64 rounds to 1 and resamples. table maps a bucket
// to its quadrant, or to exact in the few buckets a threshold splits.
type quadrants struct {
	a, ab, abc, one uint64
	table           [1 << (63 - bucketShift)]uint8
}

func (q *quadrants) set(a, ab, abc float64) {
	q.a, q.ab, q.abc, q.one = least(a), least(ab), least(abc), least(1)
	for k := range q.table {
		lo := uint64(k) << bucketShift
		hi := lo | (1<<bucketShift - 1)
		q.table[k] = uint8(q.of(lo))
		for _, t := range [...]uint64{q.a, q.ab, q.abc, q.one} {
			if lo < t && t <= hi {
				q.table[k] = exact
			}
		}
	}
}

// of returns draw u's quadrant, or exact when Float64 resamples it. Of
// the three thresholds u passed, the count's high bit is src's, its
// parity dst's, whatever order the thresholds are in.
func (q *quadrants) of(u uint64) uint64 {
	if u >= q.one {
		return exact
	}
	return bit(u >= q.ab)<<1 | (bit(u >= q.a) ^ bit(u >= q.ab) ^ bit(u >= q.abc))
}

// word draws an edge's scale quadrants into one word, two bits a level,
// the first level highest. It takes the common case only: scale is at
// most 32, the block holds the draws, and Float64 keeps each of them.
// Otherwise it reports false and leaves the stream where it was.
func (q *quadrants) word(s *stream, scale int) (w uint64, ok bool) {
	if uint(scale) > 32 || s.pos+scale > len(s.y) {
		return 0, false
	}
	for _, u := range s.y[s.pos : s.pos+scale] {
		u &= 1<<63 - 1
		c := uint64(q.table[u>>bucketShift%uint64(len(q.table))]) // % drops the bounds check
		if c == exact {
			if c = q.of(u); c == exact {
				return 0, false
			}
		}
		w = w<<2 | c
	}
	s.pos += scale
	return w, true
}

// exactly draws an edge's scale quadrants one draw at a time, resampling
// as Float64 does: the path for any scale, a block's end and a rejected
// draw.
func (q *quadrants) exactly(s *stream, scale int) (src, dst uint64) {
	for level := 0; level < scale; {
		if c := q.of(s.next()); c != exact {
			src = src<<1 | c>>1
			dst = dst<<1 | c&1
			level++
		}
	}
	return src, dst
}

// evens gathers w's even bits, counting from bit 0, into its low half: a
// word of quadrants yields dst's bits, and shifted right once, src's.
func evens(w uint64) uint64 {
	w &= 0x5555555555555555
	w = (w | w>>1) & 0x3333333333333333
	w = (w | w>>2) & 0x0f0f0f0f0f0f0f0f
	w = (w | w>>4) & 0x00ff00ff00ff00ff
	w = (w | w>>8) & 0x0000ffff0000ffff
	return (w | w>>16) & 0x00000000ffffffff
}

// bit converts a comparison to 0 or 1; the compiler emits a SETcc, so
// of does not branch on the side of a threshold a draw falls, which a
// uniform draw would mispredict.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
