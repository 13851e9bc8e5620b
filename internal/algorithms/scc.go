package algorithms

import (
	"encoding/binary"
	"fmt"

	"chaos/internal/gas"
	"chaos/internal/graph"
)

// SCC phase modes.
const (
	sccFwd = iota
	sccMarkRoots
	sccBwd
	sccFinalize
)

// SCCVertex is the per-vertex state of strongly connected components.
type SCCVertex struct {
	Color   uint32 // max vertex ID known to reach this vertex
	SCC     uint32 // assigned component, or unreachable while undecided
	Done    bool
	BwReach bool
	Active  bool
}

// SCCAccum carries the max color (forward phase) or a same-color hit
// (backward phase).
type SCCAccum struct {
	Max uint32
	Hit bool
}

// SCC computes strongly connected components by forward-backward coloring
// (the algorithm X-Stream uses): propagate the maximum vertex ID forward to
// fixpoint, giving every vertex a color; the vertex whose ID equals its
// color is the root of its color class; propagate backward within the class
// to find the root's SCC; peel it off and repeat on the remainder.
//
// The input must contain every directed edge twice: once forward with
// weight 0 and once reversed with weight 1 (see AugmentEdges); the weight
// field selects the propagation direction.
type SCC struct {
	mode int
}

// AugmentEdges returns the edge list SCC expects, materialized.
func AugmentEdges(edges []graph.Edge) []graph.Edge {
	return graph.Collect(AugmentedView(graph.Edges(edges)))
}

// AugmentedSource is the edge list SCC expects over a base source: each
// base edge forward (weight 0), then reversed (weight 1). View position
// v is base edge v/2, so the view needs no index.
type AugmentedSource struct{ base graph.Source }

// AugmentedView returns the augmented view of base.
func AugmentedView(base graph.Source) *AugmentedSource { return &AugmentedSource{base} }

// Len implements graph.Source.
func (a *AugmentedSource) Len() int { return 2 * a.base.Len() }

// Base is the source a is a view of.
func (a *AugmentedSource) Base() graph.Source { return a.base }

// Range implements graph.Source: it reads base edges lo/2 up to hi/2,
// rounded up, in a third of scratch and expands them into the rest.
func (a *AugmentedSource) Range(lo, hi int, scratch []graph.Edge, fn func([]graph.Edge)) {
	if lo < 0 || hi > a.Len() || lo > hi {
		panic(fmt.Sprintf("algorithms: range [%d, %d) of an augmented view of %d edges", lo, hi, a.Len()))
	}
	if lo == hi {
		return
	}
	raw, out := graph.SplitScratch(scratch)
	pos := lo &^ 1 // the view position of base edge lo/2
	k := 0         // out[:k] is expanded and not yet yielded
	a.base.Range(lo/2, (hi+1)/2, raw, func(batch []graph.Edge) {
		o, p, j := out, pos, k // locals, not the closure's shared variables, in the loop
		for _, e := range batch {
			if j > len(o)-2 {
				fn(o[:j])
				j = 0
			}
			if p >= lo {
				o[j] = graph.Edge{Src: e.Src, Dst: e.Dst}
				j++
			}
			if p+1 < hi {
				o[j] = graph.Edge{Src: e.Dst, Dst: e.Src, Weight: 1}
				j++
			}
			p += 2
		}
		pos, k = p, j
	})
	if k > 0 {
		fn(out[:k])
	}
}

// Name implements gas.Program.
func (*SCC) Name() string { return "SCC" }

// Weighted implements gas.Program: the weight carries the edge direction
// tag.
func (*SCC) Weighted() bool { return true }

// NeedsDegrees implements gas.Program.
func (*SCC) NeedsDegrees() bool { return false }

// Init implements gas.Program.
func (s *SCC) Init(id graph.VertexID, v *SCCVertex, _ uint32) {
	s.mode = sccFwd
	v.Color = uint32(id)
	v.SCC = unreachable
	v.Active = true
}

// Scatter implements gas.Program.
func (s *SCC) Scatter(_ int, e graph.Edge, src *SCCVertex) (graph.VertexID, uint32, bool) {
	if src.Done || !src.Active {
		return 0, 0, false
	}
	switch s.mode {
	case sccFwd:
		if e.Weight == 0 {
			return e.Dst, src.Color, true
		}
	case sccBwd:
		if e.Weight == 1 && src.BwReach {
			return e.Dst, src.Color, true
		}
	}
	return 0, 0, false
}

// InitAccum implements gas.Program.
func (*SCC) InitAccum() SCCAccum { return SCCAccum{} }

// Gather implements gas.Program: max color forward; same-color hit
// backward. Done vertices ignore all traffic.
func (s *SCC) Gather(a SCCAccum, u uint32, v *SCCVertex) SCCAccum {
	if v.Done {
		return a
	}
	switch s.mode {
	case sccFwd:
		if u > a.Max {
			a.Max = u
		}
	case sccBwd:
		if !v.BwReach && u == v.Color {
			a.Hit = true
		}
	}
	return a
}

// Merge implements gas.Program.
func (*SCC) Merge(a, b SCCAccum) SCCAccum {
	if b.Max > a.Max {
		a.Max = b.Max
	}
	if b.Hit {
		a.Hit = true
	}
	return a
}

// Apply implements gas.Program.
func (s *SCC) Apply(_ int, id graph.VertexID, v *SCCVertex, a SCCAccum) bool {
	if v.Done {
		v.Active = false
		return false
	}
	switch s.mode {
	case sccFwd:
		if a.Max > v.Color {
			v.Color = a.Max
			v.Active = true
			return true
		}
		v.Active = false
		return false
	case sccMarkRoots:
		if v.Color == uint32(id) && !v.BwReach {
			v.BwReach = true
			v.Active = true
			return true
		}
		v.Active = false
		return false
	case sccBwd:
		if !v.BwReach && a.Hit {
			v.BwReach = true
			v.Active = true
			return true
		}
		v.Active = false
		return false
	default: // sccFinalize
		changed := false
		if v.BwReach {
			v.SCC = v.Color
			v.Done = true
			changed = true
		} else {
			// Reset for the next peeling round.
			v.Color = uint32(id)
		}
		v.BwReach = false
		v.Active = !v.Done
		return changed
	}
}

// Converged implements gas.Program; it also advances the phase machine
// (called exactly once per iteration, after all applies).
func (s *SCC) Converged(_ int, changed uint64) bool {
	switch s.mode {
	case sccFwd:
		if changed == 0 {
			s.mode = sccMarkRoots
		}
	case sccMarkRoots:
		if changed == 0 {
			return true // no roots marked: every vertex is done
		}
		s.mode = sccBwd
	case sccBwd:
		if changed == 0 {
			s.mode = sccFinalize
		}
	default:
		s.mode = sccFwd
	}
	return false
}

// VertexCodec implements gas.Program.
func (*SCC) VertexCodec() gas.Codec[SCCVertex] {
	return gas.Codec[SCCVertex]{
		Bytes: 11,
		Put: func(buf []byte, v *SCCVertex) {
			binary.LittleEndian.PutUint32(buf, v.Color)
			binary.LittleEndian.PutUint32(buf[4:], v.SCC)
			buf[8] = b2u(v.Done)
			buf[9] = b2u(v.BwReach)
			buf[10] = b2u(v.Active)
		},
		Get: func(buf []byte, v *SCCVertex) {
			v.Color = binary.LittleEndian.Uint32(buf)
			v.SCC = binary.LittleEndian.Uint32(buf[4:])
			v.Done = buf[8] != 0
			v.BwReach = buf[9] != 0
			v.Active = buf[10] != 0
		},
	}
}

// UpdateCodec implements gas.Program.
func (*SCC) UpdateCodec() gas.Codec[uint32] { return gas.Uint32Codec() }

// AccumBytes implements gas.Program.
func (*SCC) AccumBytes() int { return 5 }
