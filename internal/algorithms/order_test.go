package algorithms

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chaos/internal/graph"
)

// The engine exploits order-independence (§2): the result of folding any
// multiset of updates through Gather and combining partial accumulators
// through Merge must not depend on the order or the partitioning. These
// property tests verify it for every algorithm's accumulator algebra.

// foldOrders folds updates in two different random orders and with a
// random split into two accumulators merged at the end, then compares via
// eq.
func checkOrderIndependence[V, U, A any](t *testing.T, name string,
	initAccum func() A,
	gather func(A, U, *V) A,
	merge func(A, A) A,
	gen func(*rand.Rand) U,
	eq func(A, A) bool,
) {
	t.Helper()
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 1
		updates := make([]U, n)
		for i := range updates {
			updates[i] = gen(rng)
		}
		var v V

		// Order A: sequential.
		a := initAccum()
		for _, u := range updates {
			a = gather(a, u, &v)
		}
		// Order B: shuffled, split into two partial accumulators.
		perm := rng.Perm(n)
		split := rng.Intn(n + 1)
		b1, b2 := initAccum(), initAccum()
		for i, pi := range perm {
			if i < split {
				b1 = gather(b1, updates[pi], &v)
			} else {
				b2 = gather(b2, updates[pi], &v)
			}
		}
		b := merge(b1, b2)
		// Merge with identity must be a no-op.
		b = merge(b, initAccum())
		return eq(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("%s accumulator not order-independent: %v", name, err)
	}
}

func TestBFSOrderIndependent(t *testing.T) {
	p := &BFS{}
	checkOrderIndependence(t, "BFS", p.InitAccum, p.Gather, p.Merge,
		func(r *rand.Rand) uint32 { return uint32(r.Intn(100)) },
		func(a, b uint32) bool { return a == b })
}

func TestWCCOrderIndependent(t *testing.T) {
	p := &WCC{}
	checkOrderIndependence(t, "WCC", p.InitAccum, p.Gather, p.Merge,
		func(r *rand.Rand) uint32 { return uint32(r.Intn(1000)) },
		func(a, b uint32) bool { return a == b })
}

func TestSSSPOrderIndependent(t *testing.T) {
	p := &SSSP{}
	checkOrderIndependence(t, "SSSP", p.InitAccum, p.Gather, p.Merge,
		func(r *rand.Rand) float32 { return r.Float32() * 100 },
		func(a, b float32) bool { return a == b })
}

func TestPageRankOrderIndependentWithinTolerance(t *testing.T) {
	// Float addition is only approximately associative; the engine
	// tolerates that (as does the paper's own distributed execution).
	p := &PageRank{}
	checkOrderIndependence(t, "PR", p.InitAccum, p.Gather, p.Merge,
		func(r *rand.Rand) float32 { return r.Float32() },
		func(a, b float64) bool { d := a - b; return d < 1e-6 && d > -1e-6 })
}

func TestMISOrderIndependent(t *testing.T) {
	p := &MIS{}
	checkOrderIndependence(t, "MIS", p.InitAccum, p.Gather, p.Merge,
		func(r *rand.Rand) MISUpdate {
			if r.Intn(4) == 0 {
				return MISUpdate{Elim: true}
			}
			return MISUpdate{Prio: uint64(r.Intn(50)), ID: uint32(r.Intn(50))}
		},
		func(a, b MISAccum) bool { return a == b })
}

func TestMCSTOrderIndependent(t *testing.T) {
	p := &MCST{}
	checkOrderIndependence(t, "MCST", p.InitAccum, p.Gather, p.Merge,
		func(r *rand.Rand) MCSTUpdate {
			// Few distinct comps and weights to force slot contention
			// and ties.
			return MCSTUpdate{Comp: uint64(r.Intn(3)), W: float32(r.Intn(4))}
		},
		func(a, b MCSTAccum) bool {
			// The two-slot contract: the cheapest entry must agree; the
			// second slot may legitimately retain different survivors,
			// but the cheapest crossing candidate for any given "own
			// component" must be recoverable identically. Compare the
			// best slot and the best-excluding-each-component view.
			for comp := uint64(0); comp < 4; comp++ {
				wa, ca, oka := bestExcluding(a, comp)
				wb, cb, okb := bestExcluding(b, comp)
				if oka != okb {
					return false
				}
				if oka && (wa != wb || ca != cb) {
					return false
				}
			}
			return true
		})
}

// bestExcluding mirrors MCST.Apply's candidate selection.
func bestExcluding(a MCSTAccum, mine uint64) (float32, uint64, bool) {
	switch {
	case a.Has1 && a.C1 != mine:
		return a.W1, a.C1, true
	case a.Has2 && a.C2 != mine:
		return a.W2, a.C2, true
	}
	return 0, 0, false
}

func TestSCCOrderIndependent(t *testing.T) {
	p := &SCC{}
	p.mode = sccFwd
	checkOrderIndependence(t, "SCC-fwd", p.InitAccum, p.Gather, p.Merge,
		func(r *rand.Rand) uint32 { return uint32(r.Intn(100)) },
		func(a, b SCCAccum) bool { return a == b })
}

func TestConductanceOrderIndependent(t *testing.T) {
	p := &Conductance{}
	checkOrderIndependence(t, "Cond", p.InitAccum, p.Gather, p.Merge,
		func(r *rand.Rand) uint32 { return uint32(r.Intn(2)) },
		func(a, b CondAccum) bool { return a == b })
}

func TestCombinerConsistentWithGather(t *testing.T) {
	// For programs with a combiner, pre-combining updates then gathering
	// must equal gathering them individually.
	prop := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		// Rank contributions are small positive reals; map arbitrary
		// inputs into [0, 1) to avoid float32 overflow artifacts.
		vals := make([]float32, len(raw))
		for i, r := range raw {
			v := math.Abs(math.Mod(float64(r), 1))
			if math.IsNaN(v) {
				v = 0.5
			}
			vals[i] = float32(v)
		}
		p := &PageRank{}
		var v PRVertex
		direct := p.InitAccum()
		for _, u := range vals {
			direct = p.Gather(direct, u, &v)
		}
		combined := vals[0]
		for _, u := range vals[1:] {
			combined = p.Combine(combined, u)
		}
		viaCombine := p.Gather(p.InitAccum(), combined, &v)
		d := direct - viaCombine
		return d < 1e-3 && d > -1e-3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Min-style combiners are exact.
	b := &BFS{}
	if b.Combine(3, 5) != 3 || b.Combine(5, 3) != 3 {
		t.Error("BFS combiner is not min")
	}
	w := &WCC{}
	if w.Combine(9, 2) != 2 {
		t.Error("WCC combiner is not min")
	}
	s := &SSSP{}
	if s.Combine(1.5, 0.5) != 0.5 {
		t.Error("SSSP combiner is not min")
	}
}

func TestMCSTRewriteEdgeDropsInternal(t *testing.T) {
	p := &MCST{}
	var v MCSTVertex
	p.Init(0, &v, 0)
	p.Init(1, &v, 0)
	p.Init(2, &v, 0)
	// Union 0 and 1 directly through the structure KeepEdge consults.
	p.parent[1] = 0
	if p.KeepEdge(0, graph.Edge{Src: 0, Dst: 1}, &v) {
		t.Error("intra-component edge kept")
	}
	if !p.KeepEdge(0, graph.Edge{Src: 1, Dst: 2}, &v) {
		t.Error("crossing edge dropped")
	}
}
