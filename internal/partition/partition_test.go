package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chaos/internal/graph"
)

func TestSmallestMultipleRule(t *testing.T) {
	// 1000 vertices, 4 machines, 8-byte vertices, budget 1600B => 200
	// vertices per partition max; need >= 5 partitions => smallest
	// multiple of 4 is 8.
	l, err := NewLayout(1000, 4, 8, 1600)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumPartitions != 8 {
		t.Errorf("partitions = %d, want 8", l.NumPartitions)
	}
	if l.PerPartition != 125 {
		t.Errorf("per-partition = %d, want 125", l.PerPartition)
	}
}

func TestSinglePartitionWhenEverythingFits(t *testing.T) {
	l, err := NewLayout(100, 1, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumPartitions != 1 {
		t.Errorf("partitions = %d, want 1", l.NumPartitions)
	}
}

func TestBudgetTooSmallForOneVertex(t *testing.T) {
	if _, err := NewLayout(10, 1, 8, 4); err == nil {
		t.Error("budget smaller than one vertex should error")
	}
}

func TestPartitionCountIsBounded(t *testing.T) {
	if l, err := NewLayout(MaxPartitions, 1, 8, 8); err != nil || l.NumPartitions != MaxPartitions {
		t.Errorf("exactly MaxPartitions one-vertex partitions: %v, %v", l, err)
	}
	if _, err := NewLayout(MaxPartitions+1, 1, 8, 8); err == nil {
		t.Error("a one-vertex budget past MaxPartitions vertices should error")
	}
	if _, err := NewLayout(10, MaxPartitions+1, 8, 1<<20); err == nil {
		t.Error("more machines than MaxPartitions should error")
	}
	// 3 machines: the last multiple under the bound is 1023.
	if _, err := NewLayout(1024, 3, 8, 8); err == nil {
		t.Error("a count that only fits past MaxPartitions should error")
	}
}

func TestRejectsZeroMachinesAndVertices(t *testing.T) {
	if _, err := NewLayout(10, 0, 8, 100); err == nil {
		t.Error("zero machines should error")
	}
	if _, err := NewLayout(0, 1, 8, 100); err == nil {
		t.Error("zero vertices should error")
	}
}

func TestRangesTileVertexSet(t *testing.T) {
	l, err := NewLayout(1003, 4, 4, 400) // deliberately non-divisible
	if err != nil {
		t.Fatal(err)
	}
	var covered uint64
	for p := 0; p < l.NumPartitions; p++ {
		lo, hi := l.Range(p)
		covered += uint64(hi - lo)
		if p > 0 {
			_, prevHi := l.Range(p - 1)
			if lo != prevHi {
				t.Errorf("partition %d starts at %d, previous ended at %d", p, lo, prevHi)
			}
		}
		for v := lo; v < hi; v++ {
			if l.Of(v) != p {
				t.Fatalf("vertex %d maps to partition %d, expected %d", v, l.Of(v), p)
			}
		}
	}
	if covered != l.NumVertices {
		t.Errorf("ranges cover %d vertices, want %d", covered, l.NumVertices)
	}
}

func TestRangesTileProperty(t *testing.T) {
	prop := func(nv uint32, m uint8, mult uint8) bool {
		n := uint64(nv%100000) + 1
		machines := int(m%16) + 1
		parts := machines * (int(mult%8) + 1)
		l, err := FixedLayout(n, machines, parts)
		if err != nil {
			return false
		}
		var covered uint64
		for p := 0; p < l.NumPartitions; p++ {
			covered += l.Size(p)
		}
		if covered != n {
			return false
		}
		// Spot-check Of() consistency at range boundaries.
		for p := 0; p < l.NumPartitions; p++ {
			lo, hi := l.Range(p)
			if lo < hi && (l.Of(lo) != p || l.Of(hi-1) != p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMasterAssignmentRoundRobin(t *testing.T) {
	l, err := FixedLayout(1000, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for p := 0; p < l.NumPartitions; p++ {
		counts[l.Master(p)]++
	}
	for m := 0; m < 4; m++ {
		if counts[m] != 3 {
			t.Errorf("machine %d masters %d partitions, want 3", m, counts[m])
		}
	}
	ps := l.PartitionsOf(1)
	want := []int{1, 5, 9}
	for i := range want {
		if ps[i] != want[i] {
			t.Errorf("PartitionsOf(1) = %v, want %v", ps, want)
		}
	}
}

func TestBinEdgesBySource(t *testing.T) {
	l, err := FixedLayout(100, 2, 4) // 25 vertices per partition
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.Edge{
		{Src: 0, Dst: 99},
		{Src: 24, Dst: 0},
		{Src: 25, Dst: 10},
		{Src: 99, Dst: 1},
	}
	bins := l.BinEdges(edges)
	if len(bins[0]) != 2 || len(bins[1]) != 1 || len(bins[3]) != 1 {
		t.Errorf("bin sizes wrong: %d %d %d %d", len(bins[0]), len(bins[1]), len(bins[2]), len(bins[3]))
	}
	total := 0
	for _, b := range bins {
		total += len(b)
	}
	if total != len(edges) {
		t.Errorf("binning lost edges: %d of %d", total, len(edges))
	}
}

func TestFixedLayoutValidation(t *testing.T) {
	if _, err := FixedLayout(10, 4, 6); err == nil {
		t.Error("partition count not a multiple of machines should error")
	}
	if _, err := FixedLayout(10, 4, 0); err == nil {
		t.Error("zero partitions should error")
	}
}

// TestLayoutOfMatchesDivision: Of answers with a reciprocal multiplication
// where the layout allows; for every layout and every ID — widths that are
// and are not powers of two, a width of one, vertex counts past 2^32, IDs
// past NumVertices and past 2^32 — the answer is the division's, clamped.
func TestLayoutOfMatchesDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(l *Layout, v uint64) {
		t.Helper()
		want := int(min(v/l.PerPartition, uint64(l.NumPartitions-1)))
		if got := l.Of(graph.VertexID(v)); got != want {
			t.Fatalf("%v: Of(%d) = %d, want %d", l, v, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		machines := 1 + rng.Intn(8)
		parts := machines * (1 + rng.Intn(16))
		var n uint64
		switch i % 4 {
		case 0: // an R-MAT graph: a power of two
			n = 1 << (4 + rng.Intn(30))
		case 1: // anything below 2^32
			n = 1 + uint64(rng.Int63n(1<<32-1))
		case 2: // just around 2^32, where the ID width and the fast path change
			n = 1<<32 - 8 + uint64(rng.Intn(16))
		default: // past 2^32
			n = 1<<32 + uint64(rng.Int63n(1<<40))
		}
		l, err := FixedLayout(n, machines, parts)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []uint64{0, 1, l.PerPartition - 1, l.PerPartition, n - 1, n, n + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<64 - 1} {
			check(l, v)
		}
		for j := 0; j < 200; j++ {
			check(l, rng.Uint64()%(2*n))
			check(l, uint64(rng.Uint32()))
			check(l, uint64(rng.Intn(parts+1))*l.PerPartition-uint64(rng.Intn(2)))
		}
	}
	// NewLayout builds the same fast path, and a Layout written as a
	// literal has none and still divides.
	l, err := NewLayout(1000, 4, 8, 1600)
	if err != nil {
		t.Fatal(err)
	}
	lit := &Layout{NumVertices: 1000, NumPartitions: 8, NumMachines: 4, PerPartition: 125}
	one, err := FixedLayout(8, 4, 8) // a vertex per partition: no reciprocal fits 64 bits
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 1100; v++ {
		check(l, v)
		check(lit, v)
		check(one, v)
	}
}
