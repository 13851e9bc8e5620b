package giraph

import (
	"math"
	"testing"

	"chaos/internal/cluster"
	"chaos/internal/graph"
	"chaos/internal/refalgo"
	"chaos/internal/rmat"
)

func TestPageRankCorrect(t *testing.T) {
	g := rmat.New(8, 3)
	edges := g.Generate()
	n := g.NumVertices()
	res, err := RunPageRank(cluster.SSD(4), edges, n)
	if err != nil {
		t.Fatal(err)
	}
	want := refalgo.PageRank(graph.BuildAdjacency(edges, n), 5)
	for i := range res.Ranks {
		if math.Abs(res.Ranks[i]-want[i]) > 1e-9*math.Max(1, want[i]) {
			t.Fatalf("vertex %d: rank %g, want %g", i, res.Ranks[i], want[i])
		}
	}
	if res.Runtime <= 0 {
		t.Error("no runtime recorded")
	}
}

func TestOwnerIsDeterministicAndInRange(t *testing.T) {
	for v := graph.VertexID(0); v < 1000; v++ {
		o := Owner(v, 7)
		if o != Owner(v, 7) || o < 0 || o >= 7 {
			t.Fatalf("owner(%d) = %d", v, o)
		}
	}
}

func TestScalingWorseThanLinear(t *testing.T) {
	// Static partitioning cannot beat perfect scaling; the skewed
	// message load should keep speedup clearly below linear.
	g := rmat.New(10, 5)
	edges := g.Generate()
	n := g.NumVertices()
	r1, err := RunPageRank(cluster.SSD(1), edges, n)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunPageRank(cluster.SSD(8), edges, n)
	if err != nil {
		t.Fatal(err)
	}
	speedup := r1.Runtime.Seconds() / r8.Runtime.Seconds()
	if speedup > 8 {
		t.Errorf("speedup %.1f exceeds machine count", speedup)
	}
	if speedup < 1 {
		t.Errorf("8 machines slower than 1: speedup %.2f", speedup)
	}
	if r8.MaxLoad < 1 {
		t.Errorf("max load %.2f below mean", r8.MaxLoad)
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := RunPageRank(cluster.Spec{}, nil, 0); err == nil {
		t.Error("zero machines should error")
	}
}
