package algorithms

import (
	"encoding/binary"
	"math"
	"slices"

	"chaos/internal/gas"
	"chaos/internal/graph"
)

// MCSTVertex exposes the vertex's final component label for inspection.
type MCSTVertex struct {
	Comp uint64
}

// MCSTUpdate announces the source vertex's component and the edge weight.
type MCSTUpdate struct {
	Comp uint64
	W    float32
}

// MCSTAccum keeps the two cheapest incoming announcements with distinct
// components; two slots suffice because at most one of them can match the
// receiver's own component.
type MCSTAccum struct {
	W1   float32
	C1   uint64
	Has1 bool
	W2   float32
	C2   uint64
	Has2 bool
}

// MCST computes the weight of a minimum-cost spanning forest with Borůvka's
// algorithm on a weighted undirected edge list. Every iteration streams all
// edges once: each edge announces its source's component to its destination,
// each vertex gathers the cheapest crossing edge, and the per-component
// minima are merged.
//
// Component membership (a union-find over vertex IDs) lives at the
// coordinator. The vertex set of a streaming partition fits in memory by
// definition (§3), so this auxiliary structure respects the memory model;
// the out-of-core quantity the evaluation measures — one full edge stream
// per Borůvka round — is preserved exactly. X-Stream's MCST kept equivalent
// in-memory auxiliaries, and Table 1 shows it as the most expensive
// algorithm, as it is here. Checkpoint/rollback of coordinator state is not
// supported for this program.
type MCST struct {
	parent []uint64
	// cand[c] is the cheapest crossing edge found for component c this
	// round.
	cand map[uint64]MCSTUpdate
	// Total accumulates the forest weight.
	Total float64
	// Edges counts forest edges taken.
	Edges int
}

// Name implements gas.Program.
func (*MCST) Name() string { return "MCST" }

// Weighted implements gas.Program.
func (*MCST) Weighted() bool { return true }

// NeedsDegrees implements gas.Program.
func (*MCST) NeedsDegrees() bool { return false }

// Init implements gas.Program.
func (m *MCST) Init(id graph.VertexID, v *MCSTVertex, _ uint32) {
	if m.parent == nil || uint64(len(m.parent)) <= uint64(id) {
		np := make([]uint64, uint64(id)+1)
		copy(np, m.parent)
		for i := len(m.parent); i < len(np); i++ {
			np[i] = uint64(i)
		}
		m.parent = np
	}
	m.parent[id] = uint64(id)
	m.cand = make(map[uint64]MCSTUpdate)
	m.Total = 0
	m.Edges = 0
	v.Comp = uint64(id)
}

// find is the union-find lookup with path compression. It may only be
// called from Apply and Converged, which the engine serializes; Scatter
// and KeepEdge run concurrently on the engine's compute workers and
// must use the read-only findRO.
func (m *MCST) find(x uint64) uint64 {
	for m.parent[x] != x {
		m.parent[x] = m.parent[m.parent[x]]
		x = m.parent[x]
	}
	return x
}

// findRO is the lookup without path compression: safe for concurrent
// calls during a phase, because the engine guarantees no union or
// compression runs while scatter kernels are in flight.
func (m *MCST) findRO(x uint64) uint64 {
	for m.parent[x] != x {
		x = m.parent[x]
	}
	return x
}

// Scatter implements gas.Program: every edge announces its source's
// current component.
func (m *MCST) Scatter(_ int, e graph.Edge, _ *MCSTVertex) (graph.VertexID, MCSTUpdate, bool) {
	return e.Dst, MCSTUpdate{Comp: m.findRO(uint64(e.Src)), W: e.Weight}, true
}

// InitAccum implements gas.Program.
func (*MCST) InitAccum() MCSTAccum { return MCSTAccum{} }

// less orders candidate edges by (weight, component) for deterministic
// tie-breaking.
func mcstLess(w1 float32, c1 uint64, w2 float32, c2 uint64) bool {
	if w1 != w2 {
		return w1 < w2
	}
	return c1 < c2
}

// insert folds one announcement into the two-slot accumulator.
func (a MCSTAccum) insert(u MCSTUpdate) MCSTAccum {
	switch {
	case a.Has1 && a.C1 == u.Comp:
		if mcstLess(u.W, u.Comp, a.W1, a.C1) {
			a.W1 = u.W
		}
	case a.Has2 && a.C2 == u.Comp:
		if mcstLess(u.W, u.Comp, a.W2, a.C2) {
			a.W2 = u.W
		}
	case !a.Has1:
		a.W1, a.C1, a.Has1 = u.W, u.Comp, true
	case !a.Has2:
		a.W2, a.C2, a.Has2 = u.W, u.Comp, true
	case mcstLess(u.W, u.Comp, a.W2, a.C2):
		a.W2, a.C2 = u.W, u.Comp
	}
	// Keep slot 1 the cheaper of the two.
	if a.Has1 && a.Has2 && mcstLess(a.W2, a.C2, a.W1, a.C1) {
		a.W1, a.C1, a.W2, a.C2 = a.W2, a.C2, a.W1, a.C1
	}
	return a
}

// Gather implements gas.Program.
func (m *MCST) Gather(a MCSTAccum, u MCSTUpdate, _ *MCSTVertex) MCSTAccum {
	return a.insert(u)
}

// Merge implements gas.Program.
func (m *MCST) Merge(a, b MCSTAccum) MCSTAccum {
	if b.Has1 {
		a = a.insert(MCSTUpdate{Comp: b.C1, W: b.W1})
	}
	if b.Has2 {
		a = a.insert(MCSTUpdate{Comp: b.C2, W: b.W2})
	}
	return a
}

// Apply implements gas.Program: pick the cheapest announcement crossing the
// vertex's own component and offer it as the component's candidate.
func (m *MCST) Apply(_ int, id graph.VertexID, v *MCSTVertex, a MCSTAccum) bool {
	mine := m.find(uint64(id))
	v.Comp = mine
	var u MCSTUpdate
	switch {
	case a.Has1 && a.C1 != mine:
		u = MCSTUpdate{Comp: a.C1, W: a.W1}
	case a.Has2 && a.C2 != mine:
		u = MCSTUpdate{Comp: a.C2, W: a.W2}
	default:
		return false
	}
	if best, ok := m.cand[mine]; !ok || mcstLess(u.W, u.Comp, best.W, best.Comp) {
		m.cand[mine] = u
	}
	return true
}

// Converged implements gas.Program: merge this round's component minima
// (classic Borůvka; processing each component's cheapest crossing edge once
// per round, skipping pairs a previous merge already united). Components
// merge in sorted order: map iteration order would make the union
// sequence — and with it the final component representatives — differ
// between identical runs.
func (m *MCST) Converged(_ int, changed uint64) bool {
	if changed == 0 {
		return true
	}
	comps := make([]uint64, 0, len(m.cand))
	for comp := range m.cand {
		comps = append(comps, comp)
	}
	slices.Sort(comps)
	for _, comp := range comps {
		u := m.cand[comp]
		a, b := m.find(comp), m.find(u.Comp)
		if a == b {
			continue
		}
		m.parent[b] = a
		m.Total += float64(u.W)
		m.Edges++
	}
	m.cand = make(map[uint64]MCSTUpdate)
	return false
}

// VertexCodec implements gas.Program.
func (*MCST) VertexCodec() gas.Codec[MCSTVertex] {
	return gas.Codec[MCSTVertex]{
		Bytes: 8,
		Put:   func(buf []byte, v *MCSTVertex) { binary.LittleEndian.PutUint64(buf, v.Comp) },
		Get:   func(buf []byte, v *MCSTVertex) { v.Comp = binary.LittleEndian.Uint64(buf) },
	}
}

// UpdateCodec implements gas.Program.
func (*MCST) UpdateCodec() gas.Codec[MCSTUpdate] {
	return gas.Codec[MCSTUpdate]{
		Bytes: 12,
		Put: func(buf []byte, u *MCSTUpdate) {
			binary.LittleEndian.PutUint64(buf, u.Comp)
			binary.LittleEndian.PutUint32(buf[8:], math.Float32bits(u.W))
		},
		Get: func(buf []byte, u *MCSTUpdate) {
			u.Comp = binary.LittleEndian.Uint64(buf)
			u.W = math.Float32frombits(binary.LittleEndian.Uint32(buf[8:]))
		},
	}
}

// AccumBytes implements gas.Program.
func (*MCST) AccumBytes() int { return 26 }

// KeepEdge implements gas.EdgeRewriter (the §6.1 extended model): an
// edge whose endpoints have merged is internal to a component and can
// never be a Borůvka candidate again, so it is dropped from the next
// iteration's stream. Later rounds then stream a shrinking edge set, the
// classic Borůvka compaction.
func (m *MCST) KeepEdge(_ int, e graph.Edge, _ *MCSTVertex) bool {
	return m.findRO(uint64(e.Src)) != m.findRO(uint64(e.Dst))
}
